package serve

import (
	"context"
	"errors"
	"slices"
	"strconv"

	"relive/internal/core"
	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/obs"
	"relive/internal/rex"
)

// The check endpoints, each described once. Every request runs its
// entry's steps in this order:
//
//   - decode: the strict decode, validation and normalization of the
//     body (the entry's Decode*Request function);
//   - key: the report key, built without the system's alphabet from the
//     canonical system key and the body's canonical fields;
//   - bind, on a report-cache miss and before admission: the
//     alphabet-bound parsing of ω-regexes, homs and fairness, the
//     pipeline cells, and the cache path;
//   - run, on a worker slot: the check, returning the response body.
//
// The server's routes and handler, the router's keys, the per-endpoint
// metrics and the fuzz target all derive from this table, so router and
// backend keys agree by construction. Report keys also address the
// persistent store, so TestGoldenReportKeys pins them.
var endpoints = []endpoint{
	entry("all", DecodeCheckRequest, propertyCheck(
		func(s *Server, ctx context.Context, rec obs.Recorder, sc *core.SystemCells, pc *core.PipelineCells) (any, error) {
			return core.CheckAllCellsCtx(ctx, rec, pc, s.cfg.Parallelism)
		})),
	entry("liveness", DecodeCheckRequest, propertyCheck(
		func(s *Server, ctx context.Context, rec obs.Recorder, sc *core.SystemCells, pc *core.PipelineCells) (any, error) {
			res, err := core.RelativeLivenessCellsCtx(ctx, rec, pc)
			if err != nil {
				return nil, err
			}
			return &LivenessResponse{Holds: res.Holds, BadPrefix: names(sc.System().Alphabet(), res.BadPrefix)}, nil
		})),
	entry("safety", DecodeCheckRequest, propertyCheck(
		func(s *Server, ctx context.Context, rec obs.Recorder, sc *core.SystemCells, pc *core.PipelineCells) (any, error) {
			res, err := core.RelativeSafetyCellsCtx(ctx, rec, pc)
			if err != nil {
				return nil, err
			}
			ab := sc.System().Alphabet()
			return &SafetyResponse{
				Holds:         res.Holds,
				Violation:     names(ab, res.Violation.Prefix),
				ViolationLoop: names(ab, res.Violation.Loop),
			}, nil
		})),
	entry("satisfies", DecodeCheckRequest, propertyCheck(
		func(s *Server, ctx context.Context, rec obs.Recorder, sc *core.SystemCells, pc *core.PipelineCells) (any, error) {
			res, err := core.SatisfiesCellsCtx(ctx, rec, pc)
			if err != nil {
				return nil, err
			}
			ab := sc.System().Alphabet()
			return &SatisfiesResponse{
				Holds:              res.Holds,
				Counterexample:     names(ab, res.Counterexample.Prefix),
				CounterexampleLoop: names(ab, res.Counterexample.Loop),
			}, nil
		})),
	entry("portfolio", DecodePortfolioRequest, portfolioCheck),
	entry("abstraction", DecodeAbstractionRequest, abstractionCheck),
	entry("fair-abstract", DecodeFairAbstractRequest, fairAbstractCheck),
	entry("statistical", DecodeStatisticalRequest, statisticalCheck),
}

// endpoint is one row of the table, served at POST /v1/check/{name}.
type endpoint struct {
	name   string
	decode func(body []byte) (any, error)
	key    func(body []byte) (*call, error) // decode, then key
}

// entry builds a table row from an endpoint's decoder and its key step,
// which fills in the report key and the bind step of a call whose
// system is already canonicalized.
func entry[R request](name string, decode func([]byte) (R, error), key func(name string, c *call, req R) error) endpoint {
	return endpoint{
		name: name,
		decode: func(body []byte) (any, error) {
			req, err := decode(body)
			if err != nil {
				return nil, err
			}
			return req, nil
		},
		key: func(body []byte) (*call, error) {
			req, err := decode(body)
			if err != nil {
				return nil, err
			}
			system, timeoutMS, noCache := req.head()
			sys, err := canonicalSystem(system)
			if err != nil {
				return nil, err
			}
			c := &call{sys: sys, timeoutMS: timeoutMS, noCache: noCache}
			if err := key(name, c, req); err != nil {
				return nil, err
			}
			return c, nil
		},
	}
}

var errUnknownEndpoint = errors.New("unknown check endpoint")

func endpointNamed(name string) (endpoint, error) {
	for _, ep := range endpoints {
		if ep.name == name {
			return ep, nil
		}
	}
	return endpoint{}, errUnknownEndpoint
}

// CheckEndpoints returns the names of the check endpoints, in table
// order; each is served at POST /v1/check/{name}.
func CheckEndpoints() []string {
	out := make([]string, len(endpoints))
	for i, ep := range endpoints {
		out[i] = ep.name
	}
	return out
}

// DecodeRequest runs the named check endpoint's strict decoder and
// returns its *Request value (a *CheckRequest for "all", "liveness",
// "safety" and "satisfies").
func DecodeRequest(endpoint string, body []byte) (any, error) {
	ep, err := endpointNamed(endpoint)
	if err != nil {
		return nil, err
	}
	return ep.decode(body)
}

// call is a request after decode and key: everything the router needs
// to place and coalesce it, and the server to probe its caches.
type call struct {
	sys       *canonSystem
	rkey      string
	timeoutMS int
	noCache   bool
	// bind runs before admission, so its errors are the client's: a 400
	// that spends no worker slot.
	bind func(s *Server, sc *core.SystemCells) (cachePath string, run runFunc, err error)
}

// runFunc runs an admitted check; sp is the endpoint's serve.<name>
// span.
type runFunc func(ctx context.Context, rec obs.Recorder, sp obs.Span) (any, error)

// property is a check's property after key. An LTL text is parsed here,
// once, and keyed by the canonical rendering of its parse tree ("GF
// result" and "G F result" share a key). An ω-regex is alphabet-bound:
// it is keyed by its raw text and parsed at bind.
type property struct {
	part  string
	ltl   *ltl.Formula
	omega string
}

// keyProperty keys a property; exactly one of ltlText and omegaText is
// non-empty (validated at decode time).
func keyProperty(ltlText, omegaText string) (property, error) {
	if ltlText == "" {
		return property{part: "omega\x00" + omegaText, omega: omegaText}, nil
	}
	f, err := ltl.Parse(ltlText)
	if err != nil {
		return property{}, err
	}
	return property{part: "ltl\x00" + f.String(), ltl: f}, nil
}

func (p property) bind(sc *core.SystemCells) (core.Property, error) {
	if p.ltl != nil {
		return core.FromFormula(p.ltl, nil), nil
	}
	o, err := rex.ParseOmega(sc.System().Alphabet(), p.omega)
	if err != nil {
		return core.Property{}, err
	}
	b, err := o.Buchi()
	if err != nil {
		return core.Property{}, err
	}
	return core.FromAutomaton(b), nil
}

// propertyCheck keys and binds the single-property endpoints, which
// differ only in the verdict they run over the (system, property)
// artifact set.
func propertyCheck(run func(s *Server, ctx context.Context, rec obs.Recorder, sc *core.SystemCells, pc *core.PipelineCells) (any, error)) func(string, *call, *CheckRequest) error {
	return func(name string, c *call, req *CheckRequest) error {
		p, err := keyProperty(req.LTL, req.Omega)
		if err != nil {
			return err
		}
		c.rkey = hashKey("report", name, c.sys.key, p.part)
		c.bind = func(s *Server, sc *core.SystemCells) (string, runFunc, error) {
			pc, hit, err := s.pipelineFor(c.sys.key, sc, p)
			if err != nil {
				return "", nil, err
			}
			return pipePath(hit), func(ctx context.Context, rec obs.Recorder, _ obs.Span) (any, error) {
				return run(s, ctx, rec, sc, pc)
			}, nil
		}
		return nil
	}
}

// portfolioCheck runs CheckAll for every property against one system.
// The properties share the system's trimmed-behavior cells, so the
// system is trimmed once no matter how many ride along.
func portfolioCheck(_ string, c *call, req *PortfolioRequest) error {
	props := make([]property, 0, len(req.LTLs)+len(req.Omegas))
	parts := []string{"portfolio", c.sys.key}
	for i, t := range slices.Concat(req.LTLs, req.Omegas) {
		ltlText, omegaText := t, ""
		if i >= len(req.LTLs) {
			ltlText, omegaText = "", t
		}
		p, err := keyProperty(ltlText, omegaText)
		if err != nil {
			return err
		}
		props, parts = append(props, p), append(parts, p.part)
	}
	c.rkey = hashKey(parts...)
	c.bind = func(s *Server, sc *core.SystemCells) (string, runFunc, error) {
		// A portfolio's cache path reflects its weakest link: pipeline-hit
		// only when every property's artifact set was already cached.
		pcs := make([]*core.PipelineCells, len(props))
		allHit := true
		for i, p := range props {
			pc, hit, err := s.pipelineFor(c.sys.key, sc, p)
			if err != nil {
				return "", nil, err
			}
			pcs[i], allHit = pc, allHit && hit
		}
		return pipePath(allHit), func(ctx context.Context, rec obs.Recorder, sp obs.Span) (any, error) {
			sp.Int("properties", int64(len(pcs)))
			resp := &PortfolioResponse{Reports: make([]*core.Report, len(pcs))}
			for i, pc := range pcs {
				rep, err := core.CheckAllCellsCtx(ctx, rec, pc, s.cfg.Parallelism)
				if err != nil {
					return nil, err
				}
				resp.Reports[i] = rep
			}
			return resp, nil
		}, nil
	}
	return nil
}

// bindHom parses an abstracting homomorphism against the cached system's
// alphabet and checks that eta is in Σ'-normal form over its image.
func bindHom(sc *core.SystemCells, homText string, eta *ltl.Formula) (*hom.Hom, error) {
	h, err := hom.Parse(sc.System().Alphabet(), homText)
	if err != nil {
		return nil, err
	}
	return h, core.CheckSigmaNormalForm(h, eta)
}

// abstractionCheck runs the paper's abstraction method (Sections 6–8).
// It has no pipeline cells, and the procedure is not context-plumbed:
// cancellation is honored up to the start of the check, and the worker
// pool still bounds its concurrency.
func abstractionCheck(_ string, c *call, req *AbstractionRequest) error {
	eta, err := ltl.Parse(req.Eta)
	if err != nil {
		return err
	}
	c.rkey = hashKey("abstraction", c.sys.key, req.Hom, eta.String())
	c.bind = func(s *Server, sc *core.SystemCells) (string, runFunc, error) {
		h, err := bindHom(sc, req.Hom, eta)
		if err != nil {
			return "", nil, err
		}
		return cachePathMiss, func(ctx context.Context, rec obs.Recorder, _ obs.Span) (any, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rep, err := core.VerifyViaAbstractionRec(rec, sc.System(), h, eta)
			if err != nil {
				return nil, err
			}
			resp := &AbstractionResponse{
				Conclusion:        rep.Conclusion.String(),
				AbstractHolds:     rep.AbstractHolds,
				Simple:            rep.Simple,
				ExtendedMaximal:   rep.ExtendedMaximal,
				AbstractStates:    rep.Abstract.NumStates(),
				AbstractBadPrefix: names(rep.Abstract.Alphabet(), rep.AbstractBadPrefix),
				SimplicityWitness: names(sc.System().Alphabet(), rep.SimplicityWitness),
			}
			if rep.Transformed != nil {
				resp.Transformed = rep.Transformed.String()
			}
			return resp, nil
		}, nil
	}
	return nil
}

// fairAbstractCheck decides fairness within abstraction: every fair run
// of the system (strong or weak transition fairness, evaluated on the
// trimmed system) satisfies Eta through Hom. The response body is the
// core.FairAbstractReport itself; only the system cells are cached.
func fairAbstractCheck(_ string, c *call, req *FairAbstractRequest) error {
	eta, err := ltl.Parse(req.Eta)
	if err != nil {
		return err
	}
	c.rkey = hashKey("fair-abstract", c.sys.key, req.Hom, req.Fairness, eta.String())
	c.bind = func(s *Server, sc *core.SystemCells) (string, runFunc, error) {
		h, err := bindHom(sc, req.Hom, eta)
		if err != nil {
			return "", nil, err
		}
		kind, _ := core.ParseFairnessKind(req.Fairness) // validated at decode
		return cachePathMiss, func(ctx context.Context, rec obs.Recorder, _ obs.Span) (any, error) {
			return core.CheckFairAbstractCells(ctx, rec, sc, h, kind,
				core.FromFormula(eta, ltl.Canonical(h.Dest())))
		}, nil
	}
	return nil
}

// statisticalCheck runs the sampling engine (internal/mc). The report is
// a deterministic function of (system, property, seed, samples, steps,
// confidence), so replays under a fixed seed are byte-identical; only
// the system cells are cached.
func statisticalCheck(_ string, c *call, req *StatisticalRequest) error {
	p, err := keyProperty(req.LTL, req.Omega)
	if err != nil {
		return err
	}
	c.rkey = hashKey("statistical", c.sys.key, p.part,
		strconv.FormatInt(req.Seed, 10),
		strconv.Itoa(req.Samples),
		strconv.Itoa(req.Steps),
		strconv.FormatFloat(req.Confidence, 'g', -1, 64))
	c.bind = func(s *Server, sc *core.SystemCells) (string, runFunc, error) {
		prop, err := p.bind(sc)
		if err != nil {
			return "", nil, err
		}
		return cachePathMiss, func(ctx context.Context, rec obs.Recorder, _ obs.Span) (any, error) {
			return core.CheckStatisticalCells(ctx, rec, sc, prop, core.StatOptions{
				Seed:       req.Seed,
				Samples:    req.Samples,
				Steps:      req.Steps,
				Confidence: req.Confidence,
				Workers:    s.cfg.Parallelism,
			})
		}, nil
	}
	return nil
}
