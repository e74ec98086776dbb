package algorithms

import (
	"context"

	"graphmat"
	"graphmat/internal/gen"
)

// LatentDim is K, the latent feature dimension of the collaborative
// filtering model (equation (3)). A fixed-size array keeps messages and
// reduced values allocation-free on the SpMV hot path.
const LatentDim = 20

// CFVec is one latent factor vector p_u (or p_v).
type CFVec [LatentDim]float32

// CFProgram implements one gradient-descent sweep of the paper's equations
// (4)–(6): every vertex (user or item) broadcasts its factor vector; a
// receiver with rating G_uv computes the error e_uv = G_uv − p_uᵀp_v against
// its *own* vector — destination state access again (§4.2) — and accumulates
// e_uv·p_other; Apply takes the gradient step.
type CFProgram struct {
	// Gamma is the learning rate γ.
	Gamma float32
	// Lambda is the regularization weight λ.
	Lambda float32
}

// SendMessage broadcasts the current factor vector.
func (CFProgram) SendMessage(_ graphmat.VertexID, prop CFVec) (CFVec, bool) { return prop, true }

// ProcessMessage computes e_uv · p_sender for one rating edge.
func (CFProgram) ProcessMessage(m CFVec, rating float32, dst CFVec) CFVec {
	var dot float32
	for k := 0; k < LatentDim; k++ {
		dot += m[k] * dst[k]
	}
	e := rating - dot
	var out CFVec
	for k := 0; k < LatentDim; k++ {
		out[k] = e * m[k]
	}
	return out
}

// Reduce sums gradient contributions elementwise.
func (CFProgram) Reduce(a, b CFVec) CFVec {
	for k := 0; k < LatentDim; k++ {
		a[k] += b[k]
	}
	return a
}

// Apply takes the gradient-descent step p ← p + γ(Σ e·p_other − λp).
func (p CFProgram) Apply(r CFVec, _ graphmat.VertexID, prop *CFVec) bool {
	for k := 0; k < LatentDim; k++ {
		prop[k] += p.Gamma * (r[k] - p.Lambda*prop[k])
	}
	return true
}

// Direction scatters along out-edges; the CF graph builder symmetrizes the
// bipartite ratings so factors flow user→item and item→user each sweep.
func (CFProgram) Direction() graphmat.Direction { return graphmat.Out }

// CFOptions configures a collaborative filtering run.
type CFOptions struct {
	Gamma      float32 // 0 means 0.001
	Lambda     float32 // 0 means 0.05
	Iterations int     // 0 means 10
	InitSeed   uint64  // factor initialization seed
	Config     graphmat.Config
}

func (o CFOptions) withDefaults() CFOptions {
	if o.Gamma == 0 {
		o.Gamma = 0.001
	}
	if o.Lambda == 0 {
		o.Lambda = 0.05
	}
	if o.Iterations == 0 {
		o.Iterations = 10
	}
	return o
}

// NewCFGraph builds the CF property graph from user→item rating triples
// (users ids [0, users), item ids [users, n)): self-loops removed and the
// bipartite edges mirrored so each rating is traversable in both directions
// (§5.1: "for collaborative filtering, the graphs have to be bipartite").
// The input is consumed.
func NewCFGraph(ratings *graphmat.COO[float32], partitions int) (*graphmat.Graph[CFVec, float32], error) {
	updSymmetric.preprocess(ratings)
	return graphmat.New[CFVec](ratings, graphmat.Options{Partitions: partitions})
}

// CF runs gradient-descent matrix factorization and returns the factor
// vectors indexed by vertex id (users then items). Factors are
// (re)initialized deterministically from InitSeed.
func CF(g *graphmat.Graph[CFVec, float32], opt CFOptions) ([]CFVec, graphmat.Stats) {
	out, stats, err := CFContext(context.Background(), g, opt, nil)
	if err != nil {
		panic(err) // contextless run with no observer cannot fail
	}
	return out, stats
}

// CFContext is CF as a cancelable, observable session: the sweep loop runs
// as one engine run, so observers see real iteration numbers. A stopped run
// returns the factors as of the stop together with the stop cause.
func CFContext(ctx context.Context, g *graphmat.Graph[CFVec, float32], opt CFOptions, obs Observer) ([]CFVec, graphmat.Stats, error) {
	opt = opt.withDefaults()
	rng := gen.NewRNG(opt.InitSeed)
	props := g.Props()
	for v := range props {
		for k := 0; k < LatentDim; k++ {
			// Small positive init keeps early gradients tame, matching
			// common MF practice.
			props[v][k] = float32(rng.Float64()) * 0.1
		}
	}
	g.SetAllActive()
	cfg := opt.Config
	cfg.MaxIterations = opt.Iterations
	sess := newSession(obs)
	stats, err := graphmat.RunContext(ctx, g, CFProgram{Gamma: opt.Gamma, Lambda: opt.Lambda}, cfg, nil, sess.options()...)
	out := make([]CFVec, len(props))
	copy(out, props)
	return out, stats, err
}
