package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"aeropack/internal/compact"
	"aeropack/internal/serve"
)

// Every generated input is a pure function of (seed, stream, index), so a
// run can draw as many bodies as its time window needs and the same seed
// always yields the same bodies.  Streams keep the workloads' draws apart.
const (
	streamBoard uint64 = iota + 1
	streamBoardBlock
	streamCoseeHot
	streamCoseeMiss
	streamCoseeSeq
	streamModal
	streamModalBlock
	streamWarm
)

func newRand(seed int64, stream, index uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream<<56^index))
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// mustBody marshals a generated request.  The request types are plain
// structs of strings, numbers and slices, so encoding cannot fail.
func mustBody(req *serve.StudyRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("aeropackbench: marshaling a generated request: %v", err))
	}
	return b
}

// Board cooling modes, in the order the board-cold blocks cycle them.
var coolingModes = []string{"conduction", "forced-air", "free-convection"}

// boardBlock is the stratification unit of board-cold: 12 bodies, four
// per cooling mode, whose board areas each fall in a different quarter of
// the 100×100 to 220×220 mm range.  The level-2 cost grows with the area,
// so a short run still sees the whole cost range of every mode, which
// keeps throughput steady across seeds.
const boardBlock = 12

// boardBody returns board-cold body i: a distinct "study" request.
func boardBody(seed int64, i int) *serve.StudyRequest {
	block, k := i/boardBlock, i%boardBlock
	mode := k % len(coolingModes)
	br := newRand(seed, streamBoardBlock, uint64(block))
	var strata []int
	for m := 0; m <= mode; m++ {
		strata = br.Perm(boardBlock / len(coolingModes))
	}
	r := newRand(seed, streamBoard, uint64(i))
	lengthMM, widthMM := stratifiedSize(r, strata[k/len(coolingModes)], len(strata))
	spec := randomBoard(r, fmt.Sprintf("board-cold-%d-%d", seed, i), lengthMM, widthMM, coolingModes[mode], 2+r.IntN(6))
	return &serve.StudyRequest{Kind: "study", Study: spec}
}

// stratifiedSize draws a board of 100–220 mm sides whose area lies in
// stratum s of n equal slices of the area range, with a random aspect.
func stratifiedSize(r *rand.Rand, s, n int) (lengthMM, widthMM float64) {
	const lo, hi = 100.0, 220.0
	area := lo*lo + (hi*hi-lo*lo)*(float64(s)+r.Float64())/float64(n)
	lengthMM = uniform(r, math.Max(lo, area/hi), math.Min(hi, area/lo))
	return lengthMM, area / lengthMM
}

// warmBoardBody is the untimed warm-up study sent before a timed window.
func warmBoardBody(seed int64) *serve.StudyRequest {
	r := newRand(seed, streamWarm, 0)
	return &serve.StudyRequest{Kind: "study", Study: randomBoard(r, fmt.Sprintf("warm-up-%d", seed), 160, 120, "conduction", 3)}
}

// warmModalBoard is the untimed warm-up board of a modal set-up.  It is
// the same board for every seed and set-up, so that set-up does the same
// work in every run.
func warmModalBoard() (*serve.BoardSpec, string) {
	r := newRand(0, streamWarm, 1)
	return randomBoard(r, "modal-warm-up", 160, 120, "conduction", 3), "WedgeLocked"
}

// randomBoard draws the rest of a board: 4–14 copper layers, the given
// number of components from the compact package library, and the
// cooling mode's boundary data.
func randomBoard(r *rand.Rand, name string, lengthMM, widthMM float64, cooling string, parts int) *serve.BoardSpec {
	b := &serve.BoardSpec{
		Name:        name,
		LengthMM:    lengthMM,
		WidthMM:     widthMM,
		ThicknessMM: uniform(r, 1.6, 2.4),
		Cooling:     cooling,
		MassLoad:    uniform(r, 0, 3),
	}
	b.Copper.Layers = 4 + r.IntN(11)
	b.Copper.Oz = float64(1 + r.IntN(2))
	b.Copper.Coverage = uniform(r, 0.5, 0.8)
	maxPartW := 6.0
	switch cooling {
	case "conduction":
		b.RailC = uniform(r, 20, 50)
	case "forced-air":
		b.ChannelH = uniform(r, 30, 80)
		b.ChannelAirC = uniform(r, 25, 45)
		maxPartW = 5
	case "free-convection":
		maxPartW = 1.5
	}
	pkgs := compact.Names()
	for c := 0; c < parts; c++ {
		pkg, err := compact.Get(pkgs[r.IntN(len(pkgs))])
		if err != nil {
			panic(err) // names come from the library itself
		}
		halfL, halfW := pkg.Length*1e3/2+3, pkg.Width*1e3/2+3
		b.Components = append(b.Components, serve.ComponentSpec{
			RefDes:  fmt.Sprintf("U%d", c+1),
			Package: pkg.Name,
			PowerW:  uniform(r, 0.2, maxPartW),
			XMM:     uniform(r, halfL, lengthMM-halfL),
			YMM:     uniform(r, halfW, widthMM-halfW),
		})
	}
	return b
}

// The cosee-mixed traffic: in every block of four requests one is a new
// sweep or qualification body and three repeat a 32-body hot set.
const (
	coseeHotSize = 32
	coseeBlock   = 4
)

// fig10Bodies are the four distinct fig10 requests of the hot set; the
// first is the default body whose summary the E5 bands check.
var fig10Bodies = []*serve.StudyRequest{
	{Kind: "fig10"},
	{Kind: "fig10", Fig10: &serve.Fig10Spec{Structure: "Al6061"}},
	{Kind: "fig10", Fig10: &serve.Fig10Spec{Structure: "Al7075"}},
	{Kind: "fig10", Fig10: &serve.Fig10Spec{Structure: "CarbonComposite"}},
}

// coseeHotBody returns hot-set body h: the four fig10 bodies, then
// alternating sweep and qualification bodies.
func coseeHotBody(seed int64, h int) *serve.StudyRequest {
	if h < len(fig10Bodies) {
		return fig10Bodies[h]
	}
	r := newRand(seed, streamCoseeHot, uint64(h))
	if h%2 == 0 {
		return randomSweep(r)
	}
	return randomQualification(r, fmt.Sprintf("hot-%d", h))
}

// coseeMissBody returns the j-th never-repeated body: sweeps and
// qualifications alternate.
func coseeMissBody(seed int64, j int) *serve.StudyRequest {
	r := newRand(seed, streamCoseeMiss, uint64(j))
	if j%2 == 0 {
		return randomSweep(r)
	}
	return randomQualification(r, fmt.Sprintf("miss-%d-%d", seed, j))
}

// coseeRequest returns request i of the cosee-mixed sequence: a new body
// and -1, or nil and the index of a hot-set body.
func coseeRequest(seed int64, i int) (*serve.StudyRequest, int) {
	block := i / coseeBlock
	if newRand(seed, streamCoseeSeq, uint64(block)).IntN(coseeBlock) == i%coseeBlock {
		return coseeMissBody(seed, block), -1
	}
	return nil, newRand(seed, streamCoseeSeq, 1<<40|uint64(i)).IntN(coseeHotSize)
}

func randomCosee(r *rand.Rand) serve.CoseeSpec {
	cs := serve.CoseeSpec{UseLHP: r.IntN(2) == 0, AmbientC: uniform(r, 15, 35)}
	if cs.UseLHP {
		cs.TiltDeg = uniform(r, 0, 22)
	}
	return cs
}

func randomSweep(r *rand.Rand) *serve.StudyRequest {
	sw := &serve.SweepSpec{CoseeSpec: randomCosee(r)}
	maxW := 50.0
	if sw.UseLHP {
		maxW = 90
	}
	for n := 2 + r.IntN(3); n > 0; n-- {
		sw.PowersW = append(sw.PowersW, uniform(r, 10, maxW))
	}
	return &serve.StudyRequest{Kind: "sweep", Sweep: sw}
}

func randomQualification(r *rand.Rand, name string) *serve.StudyRequest {
	a := serve.ArticleSpec{
		Name:          name,
		MassKg:        uniform(r, 2, 5),
		MountFnHz:     uniform(r, 150, 250),
		DampingZeta:   0.05,
		MountAreaM2:   1e-4,
		MountYieldPa:  8e7,
		BoardSpanM:    0.25,
		BoardThkM:     0.002,
		CompLenM:      0.025,
		CompConst:     1,
		PosFactor:     1,
		FatigueExpB:   6.4,
		PowerW:        uniform(r, 30, 80),
		MaxPointC:     85,
		MinStartC:     -20,
		ShockCycles:   100,
		JointDTFactor: 0.6,
		Cosee:         randomCosee(r),
	}
	return &serve.StudyRequest{Kind: "qualification", Qualification: &serve.QualSpec{Article: a, Extended: r.IntN(2) == 0}}
}

// modalBlock is the stratification unit of the modal workload: eight
// boards, two per edge condition, with stratified sizes.
const modalBlock = 8

// modalEdges are the edge conditions the modal boards cycle, by wire
// name.  SSSS is the zero value that core's defaults turn into wedge
// locks on conduction-cooled boards, so SSSS boards are forced-air.
var modalEdges = []string{"SSSS", "CCCC", "WedgeLocked", "SSSF"}

// modalBoard returns modal board i: a conduction or forced-air board with
// 1–6 components, each of which the plate FEM places as a point mass.
func modalBoard(seed int64, i int) (*serve.BoardSpec, string) {
	block, k := i/modalBlock, i%modalBlock
	edge := modalEdges[k%len(modalEdges)]
	cooling := "conduction"
	switch {
	case edge == "SSSS":
		cooling = "forced-air"
	case edge != "WedgeLocked" && k >= len(modalEdges):
		cooling = "forced-air"
	}
	strata := newRand(seed, streamModalBlock, uint64(block)).Perm(modalBlock)
	r := newRand(seed, streamModal, uint64(i))
	lengthMM, widthMM := stratifiedSize(r, strata[k], modalBlock)
	return randomBoard(r, fmt.Sprintf("modal-%d-%d", seed, i), lengthMM, widthMM, cooling, 1+r.IntN(6)), edge
}
