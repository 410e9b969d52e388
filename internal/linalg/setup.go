package linalg

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"aeropack/internal/obs"
)

// SolverSetup caches preconditioners across the near-identical systems
// aeropack's workloads produce: a Fig. 10 sweep re-solves the same
// network topology at dozens of power points, and a transient stepper
// refactors the same operator pattern every step.  Entries are keyed by
// (kind, structure hash, value hash): matrices sharing a sparsity
// pattern reuse the symbolic IC(0) factorization, and matrices
// identical in values reuse the finished preconditioner.  Cached
// preconditioners are immutable once handed out — a refresh never
// mutates an instance another goroutine may be applying — so one setup
// can serve concurrent sweep workers.
//
// Both caches are bounded FIFO; eviction order is deterministic (no map
// iteration), keeping campaign runs reproducible.  All methods are safe
// for concurrent use.
type SolverSetup struct {
	mu      sync.Mutex
	syms    map[uint64]*icSymbolic // IC(0) symbolic patterns by structure hash
	symKeys []uint64
	precs   map[precKey]Preconditioner
	precOrd []precKey
}

// setupMaxSyms / setupMaxPrecs bound the FIFO caches; sweeps touch a
// handful of patterns, so small bounds keep memory predictable.
const (
	setupMaxSyms  = 8
	setupMaxPrecs = 16
)

type precKey struct {
	kind            string
	omega           uint64
	structH, valH   uint64
	structH2, valH2 uint64
}

// NewSolverSetup returns an empty setup cache.
func NewSolverSetup() *SolverSetup {
	return &SolverSetup{
		syms:  make(map[uint64]*icSymbolic),
		precs: make(map[precKey]Preconditioner),
	}
}

// contentHash is a pair of independent 64-bit word mixers (splitmix-style
// finalisation), giving an effectively 128-bit content key: byte-wise
// FNV would walk the ~2.4 MB a big finite-volume matrix hashes one byte
// at a time, this walks it one word at a time.
type contentHash struct{ a, b uint64 }

func newContentHash() contentHash {
	return contentHash{a: 0x9E3779B97F4A7C15, b: 0xC2B2AE3D27D4EB4F}
}

func (h *contentHash) word(w uint64) {
	h.a = (h.a ^ w) * 0xBF58476D1CE4E5B9
	h.a ^= h.a >> 29
	h.b = (h.b ^ bits.RotateLeft64(w, 31)) * 0x94D049BB133111EB
	h.b ^= h.b >> 31
}

func (h *contentHash) ints(xs []int) {
	h.word(uint64(len(xs)))
	for _, x := range xs {
		h.word(uint64(x))
	}
}

func (h *contentHash) floats(xs []float64) {
	h.word(uint64(len(xs)))
	for _, x := range xs {
		h.word(math.Float64bits(x))
	}
}

// structHash digests the sparsity structure of a.
func structHash(a *CSR) contentHash {
	h := newContentHash()
	h.word(uint64(a.Rows))
	h.word(uint64(a.Cols))
	h.ints(a.RowPtr)
	h.ints(a.ColIdx)
	return h
}

// valHash digests the stored values of a.
func valHash(a *CSR) contentHash {
	h := newContentHash()
	h.floats(a.Val)
	return h
}

// PrecFor returns a preconditioner of the given kind ("jacobi", "ssor",
// "ic0"; "" or "identity" yields nil, the identity) for matrix a,
// reusing a cached instance when an identical-content matrix was seen
// before and the IC(0) symbolic pattern when only the values changed.
// omega is the SSOR relaxation factor (ignored by other kinds).  The
// returned preconditioner must be treated as immutable — never call
// Refresh on it.  An error (IC(0) breakdown surviving the whole shift
// ladder) leaves the caller free to degrade to a cheaper kind.
func (s *SolverSetup) PrecFor(kind string, a *CSR, omega float64) (Preconditioner, error) {
	switch kind {
	case "", "identity":
		return nil, nil
	case "jacobi", "ssor", "ic0":
	default:
		return nil, fmt.Errorf("linalg: unknown preconditioner kind %q", kind)
	}
	sh, vh := structHash(a), valHash(a)
	key := precKey{kind: kind, omega: math.Float64bits(omega),
		structH: sh.a, structH2: sh.b, valH: vh.a, valH2: vh.b}
	s.mu.Lock()
	if p, ok := s.precs[key]; ok {
		s.mu.Unlock()
		if r := obs.Default(); r != nil {
			r.Counter("linalg_setup_prec_reuse_total").Inc()
		}
		if rec := obs.CurrentRecorder(); rec != nil {
			rec.Record("cache", "prec_reuse", obs.Attr{Key: "kind", Value: kind})
		}
		return p, nil
	}
	var sym *icSymbolic
	if kind == "ic0" {
		sym = s.syms[sh.a]
	}
	s.mu.Unlock()

	// Build outside the lock: factorization may be expensive and must
	// never serialise concurrent sweep workers behind the mutex.
	var p Preconditioner
	switch kind {
	case "jacobi":
		p = NewJacobiPrec(a)
	case "ssor":
		p = NewSSORPrec(a, omega)
	case "ic0":
		if sym == nil || !sym.matches(a) {
			var err error
			if sym, err = icSymbolicFromCSR(a); err != nil {
				return nil, err
			}
		}
		ic, err := sym.factor(a)
		if err != nil {
			return nil, err
		}
		if ic.shift > 0 {
			if r := obs.Default(); r != nil {
				r.Counter("linalg_ic0_shifted_total").Inc()
			}
		}
		p = ic
		s.mu.Lock()
		if _, ok := s.syms[sh.a]; !ok {
			s.symKeys = append(s.symKeys, sh.a)
			s.syms[sh.a] = sym
			if len(s.symKeys) > setupMaxSyms {
				delete(s.syms, s.symKeys[0])
				s.symKeys = s.symKeys[1:]
			}
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	if _, ok := s.precs[key]; !ok {
		s.precOrd = append(s.precOrd, key)
		s.precs[key] = p
		if len(s.precOrd) > setupMaxPrecs {
			delete(s.precs, s.precOrd[0])
			s.precOrd = s.precOrd[1:]
		}
	} else {
		// A concurrent builder won the race; both instances were derived
		// from identical content, so either is correct — keep the stored
		// one for pointer-stable reuse.
		p = s.precs[key]
	}
	s.mu.Unlock()
	return p, nil
}
