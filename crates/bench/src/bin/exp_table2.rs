//! Experiment T2 — Table 2: the connection-summary schema, demonstrated.
//!
//! Table 2 is a schema, not a measurement, so this binary *exhibits* it:
//! prints the column layout, renders one real simulated record in all four
//! wire formats the repository speaks (struct debug, flow-log text line,
//! framed binary, NSG-style v2 flow tuple), and reports their per-record
//! costs — the byte sizes that feed the COGS model.

use benchkit::{simulate, write_artifact};
use cloudsim::ClusterPreset;
use flowlog::codec::{self, BINARY_RECORD_SIZE};
use flowlog::nsg;
use serde_json::json;

fn main() {
    let run = simulate(ClusterPreset::MicroserviceBench, 0.25, 2);
    let rec = run.records[run.records.len() / 2];

    println!("\nTable 2 — schema of connection summaries");
    println!("  | Time | Local IP | Local Port | Remote IP | Remote Port |");
    println!("  | #Pkts Sent | #Pkts Rcvd | #Bytes Sent | #Bytes Rcvd |");
    println!("  (+ protocol, carried by real NSG/VPC flow logs and kept as an extension)");

    println!("\none simulated record, four encodings:");
    println!("  struct      {rec:?}");
    println!("  text line   {}", codec::encode_line(&rec));
    println!("  nsg tuple   {}", nsg::to_flow_tuple(&rec));
    let bin = codec::encode_binary(&[rec]);
    println!("  binary      {} bytes/record (frame header amortized)", BINARY_RECORD_SIZE);

    let text_len = codec::encode_line(&rec).len();
    let nsg_len = nsg::to_flow_tuple(&rec).len();
    println!("\nper-record wire cost:");
    println!("  binary {BINARY_RECORD_SIZE} B | text {text_len} B | nsg tuple {nsg_len} B");

    // Round-trip proof across all codecs.
    assert_eq!(codec::decode_line(&codec::encode_line(&rec)).expect("text"), rec);
    assert_eq!(codec::decode_binary(&bin).expect("binary")[0], rec);
    assert_eq!(nsg::from_flow_tuple(&nsg::to_flow_tuple(&rec)).expect("nsg"), rec);
    println!("  all three codecs round-trip the record exactly ✓");

    write_artifact(
        "table2",
        "table2.json",
        &serde_json::to_string_pretty(&json!({
            "columns": [
                "ts", "local_ip", "local_port", "remote_ip", "remote_port",
                "pkts_sent", "pkts_rcvd", "bytes_sent", "bytes_rcvd", "proto",
            ],
            "binary_bytes_per_record": BINARY_RECORD_SIZE,
            "text_bytes_example": text_len,
            "nsg_tuple_bytes_example": nsg_len,
        }))
        .expect("serializable"),
    );
    eprintln!("[table2] artifact: target/experiments/table2/table2.json");
}
