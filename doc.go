// Package repro reproduces "Asynchronous BFT Consensus Made Wireless"
// (ICDCS 2025): the ConsensusBatcher packet-batching protocol, wireless
// adaptations of HoneyBadgerBFT, BEAT and Dumbo, the lightweight threshold
// cryptography they need, and a deterministic wireless-network simulator
// that stands in for the paper's LoRa/STM32 testbed.
//
// Layout:
//
//	internal/sim        deterministic discrete-event scheduler + CPU model
//	internal/wireless   shared-medium CSMA channel (airtime, loss, clusters)
//	internal/packet     ConsensusBatcher wire format (sections, NACK bitmaps)
//	internal/core       the batching transport (the paper's contribution):
//	                    one mux per node, one transport per open epoch
//	internal/crypto     threshold signatures / coin / encryption, PK schemes
//	internal/component  RBC, PRBC, CBC, Bracha ABA, Cachin ABA, decryptor
//	internal/protocol   HoneyBadgerBFT, BEAT, Dumbo epoch engines; the
//	                    Chain SMR engine (pipelined replicated log)
//	internal/run        the unified experiment API: run.Run(run.Spec) over
//	                    Topology (single-hop | clustered) x Workload
//	                    (one-shot | chain), incl. clustered chained SMR
//	internal/sweep      deterministic parallel grid engine for sweeps
//	internal/bench      experiment registry: one entry per table, figure
//	                    and sweep drives the CLI, benchmarks and goldens
//	cmd/...             CLI tools; examples/... runnable demos
//
// BenchmarkExperiment in bench_test.go runs every registered experiment at
// smoke size; cmd/wbft-bench regenerates the tables and figures of the
// paper's evaluation. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
