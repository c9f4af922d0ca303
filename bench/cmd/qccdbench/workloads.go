package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/service"
	"repro/internal/sweep"
)

// workload is one set of inputs the benchmark runs, with the daemon
// configuration it runs them against and the result checks it applies.
// Why each was chosen is in BENCHMARK.json and bench/README.md. A rep
// sends the request list once to a freshly started daemon.
type workload struct {
	name string
	// minReps is the fewest reps a run measures, however short --seconds.
	minReps int
	// clients is the number of closed-loop client goroutines. One client
	// streams sweeps; two send POST /v1/run.
	clients int
	// seeded makes the daemon mount one -cache-dir filled before the reps,
	// untimed. Other workloads run memory-only daemons, so no workload
	// times disk-tier writes: a file create on the ext4 filesystem the
	// benchmark was sized on took from 0.1 to 0.8 ms depending on the
	// filesystem's recent activity (bench/README.md).
	seeded bool
	// computes is how many times each design point must be computed in
	// one rep: 1 on a cold cache, 0 when every row is a cache read.
	computes int
	// build makes the workload's inputs from the seed.
	build func(seed int64) (*inputs, error)
}

// request is one HTTP request of a workload: a sweep body for a
// one-client workload, a /v1/run body otherwise.
type request struct {
	body []byte
	// rows is the number of design points the request returns.
	rows int
	// key is the check key of the design point (run) or of the sweep's
	// row 0; row seq s of a sweep has key key+s.
	key int
}

// inputs are the requests of one run and what their rows must hold.
type inputs struct {
	reqs []request
	// points[k] is the point JSON every row of key k must carry.
	points [][]byte
	// refs[k] is the result row k must carry. Entries left nil are filled
	// from the first row seen, so later rows, later reps and the traced
	// in-process replay must repeat it.
	refs [][]byte
}

// pointsPerRep is the number of design points one rep returns.
func (in *inputs) pointsPerRep() int {
	n := 0
	for _, rq := range in.reqs {
		n += rq.rows
	}
	return n
}

// workloads are the workloads this command can run; BENCHMARK.json names
// the ones the benchmark runs.
var workloads = []*workload{
	{
		name:     "paper-grid-cold",
		minReps:  5,
		clients:  1,
		computes: 1,
		build:    paperGridInputs,
	},
	{
		name:     "titan-qft512",
		minReps:  3,
		clients:  1,
		computes: 1,
		build:    titanInputs,
	},
	{
		// A replica relaunched on a shared -cache-dir that other replicas
		// have filled, streaming the paper grammar, as
		// scripts/daemon_smoke.sh does: its memory tier starts empty, so
		// every row is a disk-tier read.
		name:     "grid-disk-warm",
		minReps:  20,
		clients:  1,
		seeded:   true,
		computes: 0,
		build:    paperGridInputs,
	},
	{
		// A synthetic stress case: no caller at this commit sends a
		// repeat-heavy /v1/run stream, so its repeat share and client count
		// are assumptions, not observed traffic. Its daemon is memory-only.
		name:     "mixed-run",
		minReps:  3,
		clients:  2,
		computes: 1,
		build:    mixedInputs,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// sweepInputs builds the requests for a list of grammar sweeps: every row
// gets its own check key, in request order.
func sweepInputs(reqs []service.SweepRequest) (*inputs, error) {
	in := &inputs{}
	for _, sr := range reqs {
		grid, err := sr.Space.Compile()
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(sr)
		if err != nil {
			return nil, err
		}
		in.reqs = append(in.reqs, request{body: body, rows: int(grid.Size()), key: len(in.points)})
		for i := int64(0); i < grid.Size(); i++ {
			pj, err := json.Marshal(grid.PointAt(i))
			if err != nil {
				return nil, err
			}
			in.points = append(in.points, pj)
		}
	}
	in.refs = make([][]byte, len(in.points))
	return in, nil
}

func paperGridInputs(int64) (*inputs, error) {
	space := experiments.PaperSpace()
	in, err := sweepInputs([]service.SweepRequest{{Space: &space}})
	if err != nil {
		return nil, err
	}
	golden, err := loadGolden(filepath.Join("testdata", "golden_results.json"))
	if err != nil {
		return nil, err
	}
	grid, err := space.Compile()
	if err != nil {
		return nil, err
	}
	for i := range in.refs {
		key := grid.PointAt(int64(i)).String()
		ref, ok := golden[key]
		if !ok {
			return nil, fmt.Errorf("golden results lack %s", key)
		}
		in.refs[i] = ref
	}
	return in, nil
}

// loadGolden reads the golden grid as compact result JSON per point.
func loadGolden(path string) (map[string][]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden results: %w", err)
	}
	var lines map[string]struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &lines); err != nil {
		return nil, fmt.Errorf("parse golden results: %w", err)
	}
	out := make(map[string][]byte, len(lines))
	for k, l := range lines {
		var b bytes.Buffer
		if err := json.Compact(&b, l.Result); err != nil {
			return nil, fmt.Errorf("golden %s: %w", k, err)
		}
		out[k] = b.Bytes()
	}
	return out, nil
}

// titanInputs is the -titan study as three sweeps, one per photonic link
// latency, each carrying a full params override.
func titanInputs(int64) (*inputs, error) {
	var reqs []service.SweepRequest
	for _, lat := range []float64{100, 300, 1000} {
		p := models.Default()
		p.PhotonicLinkLatency = lat
		reqs = append(reqs, service.SweepRequest{
			Space: &sweep.Space{
				Apps:       []string{"QFT@512"},
				Topologies: []string{"Mod2:G2x7", "Mod3:G2x5", "Mod4:G2x4"},
				Capacities: []int{22},
				Gates:      []string{"FM"},
				Reorders:   []string{"GS"},
				Policies:   []string{"baseline"},
			},
			Params: &p,
		})
	}
	return sweepInputs(reqs)
}

// mixedSpace is the 720-point space mixed-run draws its requests from.
var mixedSpace = sweep.Space{
	Apps: []string{"QAOA@64", "QAOA@128", "QFT@64", "QFT@128", "BV@64", "BV@128",
		"SquareRoot@64", "SquareRoot@128", "Surface@5", "Surface@7"},
	Topologies: []string{"L8", "G2x4", "G3x3", "M2x4", "R8", "Mod2:G2x2"},
	Capacities: []int{22, 30},
	Gates:      []string{"FM", "AM2"},
	Reorders:   []string{"GS"},
	Policies:   []string{"baseline", "lookahead", "congestion"},
}

// mixedRepeats is how many requests of mixed-run repeat an earlier point.
const mixedRepeats = 240

// mixedStream is the request order of mixed-run: every one of n points
// once, in a seeded random order, with mixedRepeats repeats of earlier
// points inserted at seeded positions.
func mixedStream(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	stream := rng.Perm(n)
	for r := 0; r < mixedRepeats; r++ {
		pos := 1 + rng.Intn(len(stream))
		src := stream[rng.Intn(pos)]
		stream = append(stream, 0)
		copy(stream[pos+1:], stream[pos:])
		stream[pos] = src
	}
	return stream
}

func mixedInputs(seed int64) (*inputs, error) {
	grid, err := mixedSpace.Compile()
	if err != nil {
		return nil, err
	}
	n := int(grid.Size())
	in := &inputs{points: make([][]byte, n), refs: make([][]byte, n)}
	bodies := make([][]byte, n)
	for i := range bodies {
		pt := grid.PointAt(int64(i))
		if in.points[i], err = json.Marshal(pt); err != nil {
			return nil, err
		}
		if bodies[i], err = json.Marshal(service.RunRequest{Point: pt}); err != nil {
			return nil, err
		}
	}
	for _, k := range mixedStream(seed, n) {
		in.reqs = append(in.reqs, request{body: bodies[k], rows: 1, key: k})
	}
	return in, nil
}

// checker verifies every row against its inputs and counts how often each
// design point was computed rather than read from a cache.
type checker struct {
	in   *inputs
	want int // computations per point per rep

	mu       sync.Mutex
	computes []int
	problems []string
	nProblem int
}

func newChecker(in *inputs, computesPerRep int) *checker {
	return &checker{in: in, want: computesPerRep, computes: make([]int, len(in.points))}
}

func (c *checker) failf(format string, args ...any) {
	c.nProblem++
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// observe checks one row that carries check key k.
func (c *checker) observe(k int, r row) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k < 0 || k >= len(c.in.points) {
		c.failf("row key %d out of range", k)
		return
	}
	if !bytes.Equal(r.Point, c.in.points[k]) {
		c.failf("row %d: point %s, want %s", k, r.Point, c.in.points[k])
	}
	if r.Error != "" {
		c.failf("row %d (%s): %s", k, c.in.points[k], r.Error)
		return
	}
	switch ref := c.in.refs[k]; {
	case ref == nil:
		c.in.refs[k] = bytes.Clone(r.Result)
	case !bytes.Equal(ref, r.Result):
		c.failf("row %d (%s): result differs from its reference", k, c.in.points[k])
	}
	if !r.Cached {
		c.computes[k]++
	}
}

// endRep checks that each point was computed the expected number of times
// in the rep that just ended, and resets the counts.
func (c *checker) endRep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, n := range c.computes {
		if n != c.want {
			c.failf("point %s computed %d times in one rep, want %d", c.in.points[k], n, c.want)
		}
		c.computes[k] = 0
	}
}

// report records a problem found outside the row checks.
func (c *checker) report(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failf(format, args...)
}

// target is where a rep sends its requests: the daemon over HTTP, or the
// same request handling replayed inside the benchmark process.
type target interface {
	sweep(body []byte, onRow func(row)) error
	run(body []byte) (row, error)
}

// repOut is what one rep measured.
type repOut struct {
	points int
	failed int
	wall   time.Duration
	// pointUS is each row's elapsed_us, indexed by the row's position in
	// the rep: its check key in a sweep, its request's index in a run.
	pointUS []int64
}

// drive sends w's requests to t as one rep and checks every row.
func drive(t target, w *workload, in *inputs, chk *checker) (repOut, error) {
	var (
		out = repOut{pointUS: make([]int64, in.pointsPerRep())}
		mu  sync.Mutex
	)
	record := func(pos, k int, r row) {
		chk.observe(k, r)
		mu.Lock()
		out.points++
		if pos >= 0 && pos < len(out.pointUS) {
			out.pointUS[pos] = r.ElapsedUS
		}
		if r.Error != "" {
			out.failed++
		}
		mu.Unlock()
	}
	start := time.Now()
	if w.clients == 1 {
		for _, rq := range in.reqs {
			if err := t.sweep(rq.body, func(r row) { record(rq.key+r.Seq, rq.key+r.Seq, r) }); err != nil {
				return out, err
			}
		}
	} else {
		var (
			next  atomic.Int64
			wg    sync.WaitGroup
			first error
		)
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(in.reqs) {
						return
					}
					r, err := t.run(in.reqs[i].body)
					if err != nil {
						mu.Lock()
						if first == nil {
							first = err
						}
						mu.Unlock()
						next.Store(int64(len(in.reqs))) // stop both clients
						return
					}
					record(i, in.reqs[i].key, r)
				}
			}()
		}
		wg.Wait()
		if first != nil {
			return out, first
		}
	}
	out.wall = time.Since(start)
	chk.endRep()
	return out, nil
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
