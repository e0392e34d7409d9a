// Package vnfguard's root benchmark suite runs every experiment of the
// evaluation (E1–E20, defined once in internal/experiment) as
// sub-benchmarks BenchmarkE/<id>/<case>, each case's body with b.N
// operations; cmd/benchreport runs the same bodies and prints the
// experiments' tables.
package vnfguard

import (
	"errors"
	"testing"

	"vnfguard/internal/experiment"
)

func BenchmarkE(b *testing.B) {
	for _, e := range experiment.Registry {
		b.Run(e.ID, func(b *testing.B) {
			env := &experiment.Env{}
			b.Cleanup(func() {
				if err := env.Close(); err != nil {
					b.Error(err)
				}
			})
			plan, err := e.Setup(env)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range plan.Cases {
				b.Run(c.Name, func(b *testing.B) {
					b.StopTimer()
					body, done, err := env.Open(c, b)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					err = body(b.N)
					b.StopTimer()
					if err := errors.Join(err, done()); err != nil {
						b.Fatal(err)
					}
				})
			}
		})
	}
}
