package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relive/internal/alphabet"
	"relive/internal/gen"
	"relive/internal/paper"
	"relive/internal/serve"
)

// ltlMenu is the fixed property menu every generated exact or sampled
// request draws from. The atoms are the generated systems' letters.
var ltlMenu = []string{
	"G F a",
	"G (a -> F b)",
	"F G c",
	"G F a & G F b",
	"G (b -> X F c)",
	"(G F a) -> (G F b)",
	"G (a -> (b U c))",
	"F G (a | b)",
}

// Abstraction requests map the letters a, b, c onto x, y (hiding some)
// and check an abstract property in Σ'-normal form (no next operator).
var (
	homMenu = []string{"a=>x, b=>y, c=>", "a=>x, b=>x, c=>y", "a=>x, b=>, c=>y"}
	etaMenu = []string{"G F x", "G (x -> F y)", "F G y"}
)

const (
	letterCount = 3
	density     = 0.3

	hotKeys     = 4096
	hotZipfS    = 1.1
	hotRate     = 1500 // requests per second: about a fifth of what 2 CPUs serve at 0.25 ms of CPU each
	hotWarm     = 8192 // unmeasured prefix of the Zipf stream
	clusterKeys = 8192 // reports written to the shared volume before set-up
)

var (
	coldSizes    = []int{24, 48, 96}
	sampledSizes = []int{128, 256, 512}
)

// hotEndpoints[k] is the endpoint of the hot-mix key with Zipf rank k.
// Ranks are dealt, most popular first, to the endpoint furthest below
// its share of the traffic: all 40%, liveness, safety and satisfies 35%
// together, then portfolio, statistical, fair-abstract and abstraction.
// The deal depends on the rank weights alone, so every seed puts the
// same endpoints on the popular keys.
var hotEndpoints = func() []string {
	shares := []struct {
		endpoint string
		share    float64
	}{
		{"all", 0.40}, {"liveness", 0.12}, {"safety", 0.12}, {"satisfies", 0.11},
		{"portfolio", 0.08}, {"statistical", 0.07}, {"fair-abstract", 0.05}, {"abstraction", 0.05},
	}
	weight := func(k int) float64 { return math.Pow(float64(1+k), -hotZipfS) }
	var total float64
	for k := 0; k < hotKeys; k++ {
		total += weight(k)
	}
	dealt := make([]float64, len(shares))
	out := make([]string, hotKeys)
	for k := range out {
		best := 0
		for i, s := range shares {
			if s.share*total-dealt[i] > shares[best].share*total-dealt[best] {
				best = i
			}
		}
		dealt[best] += weight(k)
		out[k] = shares[best].endpoint
	}
	return out
}()

// spelling says how a request's text relates to its key's canonical
// text.
type spelling uint8

const (
	spellCanonical spelling = iota
	// spellSpace changes only whitespace, comments and formula spacing:
	// the service keys it like the canonical text.
	spellSpace
	// spellOrder reorders the transition lines: the same system, whose
	// verdicts must agree with the canonical text's.
	spellOrder
)

// A request is one generated HTTP call. The program under test receives
// only Endpoint and Body; the rest tells the verdict checker what the
// answer must agree with.
type request struct {
	Endpoint string
	Body     []byte
	// Group numbers the requests that must receive byte-identical
	// bodies (one key, spelled so that the service keys it alike).
	Group int
	// Canon is the group whose verdicts this request must match; it
	// differs from Group only for line-reordered respellings.
	Canon   int
	Spell   spelling
	Fixture string // paper fixture with a hand-written expected verdict
	// Pair marks a request sent at once on both connections (the two
	// copies sit at schedule positions 2r and 2r+1).
	Pair bool
	// At is when an open-loop request is due, from the window's start.
	At time.Duration
}

// schedule is everything one workload sends, in order.
type schedule struct {
	// Fill is written to the shared store volume before set-up; it is
	// neither timed nor part of set-up.
	Fill []request
	// Warm is the unmeasured prefix: the paper fixtures, then the first
	// requests of the workload's own stream.
	Warm []request
	// Run is the measured window's stream, consumed until the window
	// closes (closed loop) or sent at each request's At (open loop).
	Run []request
}

// workload is one traffic mix.
type workload struct {
	Name    string
	Open    bool // open loop at hotRate; otherwise a closed loop of two clients
	Cluster bool // a Router in front of two store-backed backends
	// MaxRate bounds how many requests per second a closed loop could
	// complete (about 2.5× what a 2-CPU host does); the stream holds
	// MaxRate × seconds, and a window that exhausts it is an error.
	MaxRate float64
	build   func(seed int64, seconds, maxRate float64, scale int) schedule
}

var workloads = []*workload{
	// The exact pipeline and kernels do nearly all the work.
	{
		Name:    "cold-exact",
		MaxRate: 2500,
		build:   buildColdExact,
	},
	// Decode, hashing, caches and marshal dominate.
	{
		Name:  "hot-mix",
		Open:  true,
		build: buildHotMix,
	},
	// The random-walk sampler does the work.
	{
		Name:    "sampled",
		MaxRate: 1000,
		build:   buildSampled,
	},
	// Store reads beside write-through puts, the router hop, coalescing.
	{
		Name:    "cluster-store",
		Cluster: true,
		MaxRate: 6000,
		build:   buildClusterStore,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Stream identifiers keep the random sources of a run's independent
// choices apart.
const (
	streamCold = iota + 1
	streamHotKey
	streamHotMix
	streamHotOrder
	streamSampled
	streamClusterFill
	streamClusterFresh
	streamClusterMix
	streamTrace
)

// splitmix64 is the finalizer that turns (seed, stream, index) into
// well-spread per-request seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(seed int64, stream, i int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)^uint64(stream)<<56) ^ uint64(i)))
}

func rngFor(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, stream, i)))
}

// systemText generates the canonical text of a random n-state system
// over a, b, c. Every letter occurs and the initial state has an
// infinite behavior, so every endpoint accepts the system.
func systemText(seed int64, stream, i, n int) string {
	ab := gen.Letters(letterCount)
	for attempt := 0; ; attempt++ {
		rng := rngFor(seed, stream, i*64+attempt)
		sys := gen.System(rng, ab, n, density)
		used := map[alphabet.Symbol]bool{}
		for _, e := range sys.Edges() {
			used[e.Sym] = true
		}
		if len(used) < letterCount {
			continue
		}
		if _, err := sys.Trim(); err != nil {
			continue
		}
		return sys.FormatString()
	}
}

// respellSpace rewrites a system text with comments, blank lines and
// irregular field spacing; the parse is unchanged.
func respellSpace(text string) string {
	var b strings.Builder
	b.WriteString("# respelled\n\n")
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		b.WriteString("  ")
		b.WriteString(strings.Join(strings.Fields(line), "   "))
		b.WriteString(" \n")
	}
	return b.String()
}

// respellFormula adds spacing around a formula's tokens.
func respellFormula(f string) string {
	return " " + strings.ReplaceAll(f, " ", "  ") + " "
}

// respellOrder shuffles a system text's lines (the init line included).
func respellOrder(rng *rand.Rand, text string) string {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return strings.Join(lines, "\n") + "\n"
}

// keySpec is everything an endpoint body is made of; spelling variants
// are rendered from it.
type keySpec struct {
	endpoint string
	system   string
	ltl      string
	ltls     []string
	hom      string
	eta      string
	fairness string
	seed     int64
	samples  int // statistical budget; 0 takes the service default
	steps    int
}

func (k keySpec) body(system string, formula func(string) string) []byte {
	var v any
	switch k.endpoint {
	case "all", "liveness", "safety", "satisfies":
		v = serve.CheckRequest{System: system, LTL: formula(k.ltl)}
	case "portfolio":
		ltls := make([]string, len(k.ltls))
		for i, f := range k.ltls {
			ltls[i] = formula(f)
		}
		v = serve.PortfolioRequest{System: system, LTLs: ltls}
	case "statistical":
		v = serve.StatisticalRequest{System: system, LTL: formula(k.ltl), Seed: k.seed, Samples: k.samples, Steps: k.steps}
	case "abstraction":
		v = serve.AbstractionRequest{System: system, Hom: k.hom, Eta: formula(k.eta)}
	case "fair-abstract":
		v = serve.FairAbstractRequest{System: system, Hom: k.hom, Fairness: k.fairness, Eta: formula(k.eta)}
	default:
		panic("unknown endpoint " + k.endpoint)
	}
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings always marshal
	}
	return data
}

func identity(s string) string { return s }

// groups hands out request group numbers within one schedule.
type groups struct{ next int }

func (g *groups) new() int {
	g.next++
	return g.next
}

// canonical renders a key's canonical spelling as a fresh group.
func (g *groups) canonical(k keySpec) request {
	id := g.new()
	return request{Endpoint: k.endpoint, Body: k.body(k.system, identity), Group: id, Canon: id}
}

// canonicals renders the canonical requests of keys 0..n-1, each its own
// group numbered in key order. The keys are independent, so their
// systems are generated on every CPU at once.
func (g *groups) canonicals(n int, spec func(i int) keySpec) []request {
	out := make([]request, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				k := spec(i)
				out[i] = request{Endpoint: k.endpoint, Body: k.body(k.system, identity)}
			}
		}()
	}
	wg.Wait()
	for i := range out {
		id := g.new()
		out[i].Group, out[i].Canon = id, id
	}
	return out
}

// fixtures returns the paper-fixture requests for the given endpoints:
// Figures 2, 3 and 4 with □◇result, whose verdicts the paper states.
func fixtures(g *groups, endpoints ...string) []request {
	fig2, err := paper.Fig2System()
	if err != nil {
		panic(err) // the paper's net always has a reachability graph
	}
	fig4, err := paper.Fig4System()
	if err != nil {
		panic(err)
	}
	texts := map[string]string{
		"fig2": fig2.FormatString(),
		"fig3": paper.Fig3System().FormatString(),
		"fig4": fig4.FormatString(),
	}
	const prop = "□◇result"
	const hom = "request=>request, result=>result, reject=>reject"
	var out []request
	add := func(fig string, k keySpec) {
		k.system = texts[fig]
		r := g.canonical(k)
		r.Fixture = fig + "/" + k.endpoint
		out = append(out, r)
	}
	for _, ep := range endpoints {
		switch ep {
		case "all":
			for _, fig := range []string{"fig2", "fig3", "fig4"} {
				add(fig, keySpec{endpoint: ep, ltl: prop})
			}
		case "liveness":
			add("fig2", keySpec{endpoint: ep, ltl: prop})
			add("fig3", keySpec{endpoint: ep, ltl: prop})
		case "safety", "satisfies":
			add("fig2", keySpec{endpoint: ep, ltl: prop})
		case "portfolio":
			add("fig2", keySpec{endpoint: ep, ltls: []string{prop, "□◇request"}})
		case "statistical":
			add("fig2", keySpec{endpoint: ep, ltl: prop})
			add("fig3", keySpec{endpoint: ep, ltl: prop})
		case "abstraction":
			add("fig2", keySpec{endpoint: ep, hom: hom, eta: prop})
			add("fig3", keySpec{endpoint: ep, hom: hom, eta: prop})
		case "fair-abstract":
			add("fig2", keySpec{endpoint: ep, hom: hom, eta: prop, fairness: "strong"})
		}
	}
	return out
}

// streamLen is how many closed-loop requests a window can consume.
func streamLen(seconds, maxRate float64) int {
	return int(math.Ceil(seconds*maxRate)) + 64
}

const (
	coldWarm    = 96
	sampledWarm = 24
)

// buildColdExact streams distinct /v1/check/all requests. Sizes and
// formulas rotate, so every 24 consecutive requests cover the size ×
// formula grid once and any window sees the same mix.
func buildColdExact(seed int64, seconds, maxRate float64, scale int) schedule {
	g := &groups{}
	s := schedule{Warm: fixtures(g, "all")}
	warm := coldWarm / scale
	reqs := g.canonicals(warm+streamLen(seconds, maxRate), func(i int) keySpec {
		n := coldSizes[i%len(coldSizes)]
		return keySpec{
			endpoint: "all",
			system:   systemText(seed, streamCold, i, n),
			ltl:      ltlMenu[(i/len(coldSizes))%len(ltlMenu)],
		}
	})
	s.Warm = append(s.Warm, reqs[:warm]...)
	s.Run = reqs[warm:]
	return s
}

// buildSampled streams distinct /v1/check/statistical requests with the
// default budget and a distinct sampling seed each.
func buildSampled(seed int64, seconds, maxRate float64, scale int) schedule {
	g := &groups{}
	s := schedule{Warm: fixtures(g, "statistical")}
	warm := sampledWarm / scale
	reqs := g.canonicals(warm+streamLen(seconds, maxRate), func(i int) keySpec {
		n := sampledSizes[i%len(sampledSizes)]
		return keySpec{
			endpoint: "statistical",
			system:   systemText(seed, streamSampled, i, n),
			ltl:      ltlMenu[(i/len(sampledSizes))%len(ltlMenu)],
			seed:     mix(seed, streamSampled, -1-i),
		}
	})
	s.Warm = append(s.Warm, reqs[:warm]...)
	s.Run = reqs[warm:]
	return s
}

// hotKey is key k of the hot-mix universe. Its endpoint, size and
// property depend on k alone; the seed picks the random system. Misses
// are kept short — 8 to 20 states, 6 to 12 for three-property
// portfolios, 4 to 6 for the abstraction endpoints (whose worst cases
// grow fastest: a 10-state system can take 200 ms), and a 64 × 64
// sampling budget — so a miss rarely holds one of the open loop's two
// connections long enough for the next miss to find both busy, and the
// latency tail is the misses' own rather than queueing accidents. The
// cold-exact and sampled workloads cover the large inputs.
func hotKey(seed int64, k int) keySpec {
	ep := hotEndpoints[k]
	n := 8 + (k*7919)%13
	j := (k*5 + k/len(ltlMenu)) % len(ltlMenu)
	spec := keySpec{endpoint: ep, ltl: ltlMenu[j]}
	switch ep {
	case "portfolio":
		n = 6 + k%7
		spec.ltl = ""
		spec.ltls = []string{ltlMenu[j], ltlMenu[(j+3)%len(ltlMenu)], ltlMenu[(j+5)%len(ltlMenu)]}
	case "statistical":
		spec.seed, spec.samples, spec.steps = int64(k), 64, 64
	case "abstraction", "fair-abstract":
		n = 4 + k%3
		spec.ltl = ""
		spec.hom = homMenu[k%len(homMenu)]
		spec.eta = etaMenu[(k/len(homMenu))%len(etaMenu)]
		if ep == "fair-abstract" {
			spec.fairness = [...]string{"strong", "weak"}[(k/7)%2]
		}
	}
	spec.system = systemText(seed, streamHotKey, k, n)
	return spec
}

func buildHotMix(seed int64, seconds, _ float64, scale int) schedule {
	g := &groups{}
	s := schedule{Warm: fixtures(g, "all", "liveness", "safety", "satisfies",
		"portfolio", "statistical", "abstraction", "fair-abstract")}
	rng := rngFor(seed, streamHotMix, 0)
	zipf := rand.NewZipf(rng, hotZipfS, 1, hotKeys-1)
	specs := map[int]keySpec{}
	canon := map[int]request{}
	// Each key has two line orders besides its canonical one, as if two
	// clients formatted it differently; each order is its own group.
	orders := map[[2]int]request{}
	spaced := map[int][]byte{}
	var at time.Duration
	window := time.Duration(seconds * float64(time.Second))
	for i := 0; ; i++ {
		k := int(zipf.Uint64())
		spec, seen := specs[k]
		if !seen {
			spec = hotKey(seed, k)
			specs[k] = spec
			canon[k] = g.canonical(spec)
		}
		r := canon[k]
		if seen && rng.Float64() < 0.25 {
			if rng.Intn(2) == 0 {
				r.Spell = spellSpace
				if spaced[k] == nil {
					spaced[k] = spec.body(respellSpace(spec.system), respellFormula)
				}
				r.Body = spaced[k]
			} else {
				v := [2]int{k, rng.Intn(2)}
				o, ok := orders[v]
				if !ok {
					o = r
					o.Spell = spellOrder
					o.Group = g.new()
					o.Body = spec.body(respellOrder(rngFor(seed, streamHotOrder, 2*k+v[1]), spec.system), identity)
					orders[v] = o
				}
				r = o
			}
		}
		if i < hotWarm/scale {
			s.Warm = append(s.Warm, r)
			continue
		}
		at += time.Duration(rng.ExpFloat64() / hotRate * float64(time.Second))
		if at >= window {
			return s
		}
		r.At = at
		s.Run = append(s.Run, r)
	}
}

const clusterWarm = 512

func buildClusterStore(seed int64, seconds, maxRate float64, scale int) schedule {
	g := &groups{}
	keys, warm := clusterKeys/scale, 2*(clusterWarm/scale/2)
	s := schedule{Fill: g.canonicals(keys, func(k int) keySpec {
		return keySpec{
			endpoint: "all",
			system:   systemText(seed, streamClusterFill, k, 8+k%25),
			ltl:      ltlMenu[k%len(ltlMenu)],
		}
	})}
	s.Warm = fixtures(g, "all")
	// Slots come in rounds of two, one per connection. A tenth of the
	// rounds send one fresh request on both connections at once; the
	// other rounds hold two independent requests, each a uniform re-read
	// of a filled key (7 in 9) or a fresh key (2 in 9). That makes 70%
	// re-reads, 20% fresh keys and 10% coalescing pairs. A slot is the
	// filled key -1-k or the fresh key f >= 0.
	rng := rngFor(seed, streamClusterMix, 0)
	total := warm + streamLen(seconds, maxRate)
	slots := make([]int, 0, total+1)
	pair := map[int]bool{}
	fresh := 0
	for len(slots) < total {
		if rng.Float64() < 0.1 {
			pair[fresh] = true
			slots = append(slots, fresh, fresh)
			fresh++
			continue
		}
		for j := 0; j < 2; j++ {
			if rng.Intn(9) < 7 {
				slots = append(slots, -1-rng.Intn(keys))
			} else {
				slots = append(slots, fresh)
				fresh++
			}
		}
	}
	freshReqs := g.canonicals(fresh, func(f int) keySpec {
		return keySpec{
			endpoint: "all",
			system:   systemText(seed, streamClusterFresh, f, 8+f%25),
			ltl:      ltlMenu[f%len(ltlMenu)],
		}
	})
	stream := make([]request, len(slots))
	for i, slot := range slots {
		if slot < 0 {
			stream[i] = s.Fill[-1-slot]
			continue
		}
		stream[i] = freshReqs[slot]
		stream[i].Pair = pair[slot]
	}
	// The fixtures shift the stream by len(Warm); keep pairs on even
	// positions of the warm prefix and of the window.
	if len(s.Warm)%2 == 1 {
		s.Warm = append(s.Warm, s.Warm[len(s.Warm)-1])
	}
	s.Warm = append(s.Warm, stream[:warm]...)
	s.Run = stream[warm:]
	return s
}
