package repro

import (
	"testing"

	"repro/internal/bench"
)

// BenchmarkExperiment runs every registered experiment — each table and
// figure of the paper's evaluation section plus the beyond-the-paper SMR
// sweeps — once per iteration at smoke-sized parameters, so `-benchtime 1x`
// compiles and exercises the whole registry without regenerating a golden.
// The numbers worth reading are the rendered tables: use cmd/wbft-bench.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range bench.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := &bench.Context{Seed: int64(i) + 1, Epochs: 1, Batch: 4, Reps: 1, ChainEpochs: 2}
				if _, err := e.Rows(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
