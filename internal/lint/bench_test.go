package lint

import "testing"

// BenchmarkLintModule measures the full fifteen-rule suite over the real
// module: parse, type-check, fact and summary gathering and every rule.
func BenchmarkLintModule(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunModule(ModuleOptions{Dir: "../.."}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// loadModule type-checks every package of the real module.
func loadModule(b *testing.B) *Loader {
	l, err := NewLoader("../..")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.LoadAll(""); err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkLintPhases isolates the two phases the interprocedural engine
// touched: type-checking and fact/summary gathering over the fully
// loaded module.  The summaries number is the marginal cost of the
// call-graph engine.
func BenchmarkLintPhases(b *testing.B) {
	b.Run("typecheck-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loadModule(b)
		}
	})
	b.Run("summaries", func(b *testing.B) {
		loaded := loadModule(b).Loaded()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			facts := NewFacts()
			facts.Gather(loaded)
		}
	})
}

// BenchmarkValueFlow isolates the value-flow engine: a fresh fact
// gather (taint/lock/solver summaries included) plus the four new rules
// over the pre-loaded module — the marginal cost v4 added on top of the
// parse/type-check baseline.
func BenchmarkValueFlow(b *testing.B) {
	loaded := loadModule(b).Loaded()
	rules := []Rule{taintsizeRule{}, stopflowRule{}, lockorderRule{}, atomicmixRule{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		facts := NewFacts()
		facts.Gather(loaded)
		for _, p := range loaded {
			p.Facts = facts
			RunRulesRaw(p, rules)
		}
	}
}
