// The lockorder rule: the module-wide lock-acquisition graph must be
// acyclic.  The fact store records an edge A→B whenever some function
// acquires B — directly or through a callee's lock summary — while
// holding A; two goroutines traversing a cycle in opposite directions
// deadlock.  A self-edge (re-acquiring the same mutex under the same
// receiver expression) is an immediate self-deadlock with sync.Mutex.
//
// Each package reports only the edges observed in its own sources, and
// searches for the closing path only through edges from its import
// closure — fact flow follows the import graph, so the findings do not
// depend on the requested package set.  The full acquisition chain of
// the cycle is attached as related locations.
package lint

import (
	"go/types"
	"sort"
	"strings"
)

type lockorderRule struct{}

func init() { Register(lockorderRule{}) }

func (lockorderRule) Name() string { return "lockorder" }

func (lockorderRule) Doc() string {
	return "the module-wide mutex acquisition graph must have no cycles (potential deadlock)"
}

func (lockorderRule) Check(p *Package) []Finding {
	edges := p.Facts.LockEdges()
	if len(edges) == 0 {
		return nil
	}
	visible := importClosure(p)
	var vis []LockEdge
	for _, e := range edges {
		if visible[e.Pkg] {
			vis = append(vis, e)
		}
	}
	// Adjacency over the visible graph, self-edges excluded (they are
	// reported directly, and would short-circuit every path search).
	adj := make(map[types.Object][]LockEdge)
	for _, e := range vis {
		if e.From != e.To {
			adj[e.From] = append(adj[e.From], e)
		}
	}
	for from := range adj {
		sort.Slice(adj[from], func(i, j int) bool {
			a, b := adj[from][i], adj[from][j]
			if a.ToName != b.ToName {
				return a.ToName < b.ToName
			}
			return posLess(a.Pos, b.Pos)
		})
	}
	var out []Finding
	for _, e := range vis {
		if e.Pkg != p.ImportPath {
			continue // another package's edge; reported there
		}
		if e.From == e.To {
			out = append(out, Finding{
				Pos:  e.Pos,
				Rule: "lockorder",
				Msg:  "re-acquiring " + e.ToName + " while already holding it — self-deadlock",
				Hint: "sync.Mutex is not reentrant; restructure so the lock is taken once",
				Related: []Related{{
					Pos: e.FromPos,
					Msg: e.FromName + " was acquired here",
				}},
			})
			continue
		}
		path := lockPath(adj, e.To, e.From)
		if path == nil {
			continue
		}
		f := Finding{
			Pos:  e.Pos,
			Rule: "lockorder",
			Msg: "acquiring " + e.ToName + " while holding " + e.FromName +
				" closes a lock-order cycle — potential deadlock",
			Hint: "pick one global acquisition order and take the locks in it everywhere",
			Related: []Related{{
				Pos: e.FromPos,
				Msg: e.FromName + " was acquired here",
			}},
		}
		if len(e.Chain) > 0 && e.AcqPos.IsValid() {
			f.Msg += " (via " + strings.Join(e.Chain, " → ") + ")"
			f.Related = append(f.Related, Related{
				Pos: e.AcqPos,
				Msg: e.ToName + " is acquired here, inside the callee",
			})
		}
		for _, pe := range path {
			msg := "the reverse order — " + pe.ToName + " while holding " + pe.FromName + " — is taken here"
			if len(pe.Chain) > 0 {
				msg += " (via " + strings.Join(pe.Chain, " → ") + ")"
			}
			f.Related = append(f.Related, Related{Pos: pe.Pos, Msg: msg})
		}
		out = append(out, f)
	}
	return out
}

// lockPath finds a path from → to over the acquisition graph with a
// deterministic breadth-first search, returning the edge sequence.
func lockPath(adj map[types.Object][]LockEdge, from, to types.Object) []LockEdge {
	type queued struct {
		node types.Object
		path []LockEdge
	}
	queue := []queued{{node: from}}
	seen := map[types.Object]bool{from: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur.node] {
			if seen[e.To] {
				continue
			}
			path := append(append([]LockEdge(nil), cur.path...), e)
			if e.To == to {
				return path
			}
			seen[e.To] = true
			queue = append(queue, queued{node: e.To, path: path})
		}
	}
	return nil
}
