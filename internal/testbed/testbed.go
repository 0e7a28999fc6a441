// Package testbed simulates a testbed of virtualized network functions —
// the stand-in for the paper's OpenStack-instantiated vNFs (vCE routers,
// SDWAN vGW/portal, cellular vCOM/vRAR; Section 4.1). Each NF carries
// software slots (installed images, active version, prior version), health
// and reachability state, traffic redirection flags, configuration, and a
// few synthetic metrics that shift with software versions (the §5.1
// observations: new images reduce packet discards but increase memory use).
//
// The testbed implements the NF-specific building blocks of Table 2 as
// in-process runners behind their REST API paths, exposes an
// orchestrator.Invoker for direct execution, and an http.Handler for real
// REST dispatch (cmd/cornetd).
//
// A fault-injection layer (faults.go) overlays per-NF error rates, latency
// distributions, flap windows, and blackholes on every invocation, so the
// orchestrator's execution policies can be rehearsed against the §5.1
// production failure modes; all randomness draws from the testbed's single
// seeded RNG for reproducibility.
package testbed

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// NF is one simulated network function instance.
type NF struct {
	ID   string
	Type string // vCE, vGW, portal, vCOM, vRAR, CPE, eNodeB, gNodeB, ...

	mu                sync.Mutex
	activeVersion     string
	priorVersion      string
	installedVersions map[string]bool
	healthy           bool
	reachable         bool
	trafficRedirected bool
	config            map[string]string
	metrics           map[string]float64
	snapshot          map[string]float64 // pre-change metric snapshot
	rebootCount       int
}

// NewNF creates a healthy, reachable NF running the given version.
func NewNF(id, nfType, version string) *NF {
	return &NF{
		ID: id, Type: nfType,
		activeVersion:     version,
		installedVersions: map[string]bool{version: true},
		healthy:           true,
		reachable:         true,
		config:            map[string]string{},
		metrics: map[string]float64{
			"cpu_util":     40,
			"mem_util":     55,
			"pkt_discards": 25,
		},
	}
}

// ActiveVersion returns the running software version.
func (n *NF) ActiveVersion() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.activeVersion
}

// PriorVersion returns the previously active version ("" if none).
func (n *NF) PriorVersion() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.priorVersion
}

// Installed reports whether an image is present on disk.
func (n *NF) Installed(version string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.installedVersions[version]
}

// Metric reads one synthetic metric.
func (n *NF) Metric(name string) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.metrics[name]
}

// Config reads one configuration key.
func (n *NF) Config(key string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.config[key]
}

// RebootCount reports how many activation reboots occurred.
func (n *NF) RebootCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rebootCount
}

// SetHealthy toggles operational health (failure injection).
func (n *NF) SetHealthy(v bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.healthy = v
}

// SetReachable toggles management-plane reachability — the SSH
// connectivity failure mode observed in §5.1.
func (n *NF) SetReachable(v bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reachable = v
}

// Testbed is a collection of NFs plus simulated execution behaviour.
type Testbed struct {
	mu  sync.RWMutex
	nfs map[string]*NF
	// Latency simulates per-block execution time (0 for fast tests).
	Latency time.Duration
	// FailureRate injects random block failures (0..1) on every call;
	// per-NF fault specs (SetFault) are the finer-grained successor.
	FailureRate float64
	// MetricNoise is the relative amplitude (e.g. 0.02 for ±2%) of
	// random noise applied to NF metric shifts on upgrades and config
	// changes. It draws from the seeded RNG, so runs are reproducible;
	// 0 (the default) disables noise entirely.
	MetricNoise float64
	// rng is the single seeded randomness source for the whole testbed —
	// failure draws, fault-injection jitter, and metric noise all go
	// through it (guarded by rngMu), never through the global math/rand,
	// so a testbed seed fully determines a run.
	rng   *rand.Rand
	rngMu sync.Mutex
	// badImages maps software versions to a packet-discard degradation
	// factor applied on activation — deterministic fault injection for
	// exercising the Fig. 4 roll-back path.
	badImages map[string]float64
	// faults holds per-NF (and wildcard) fault-injection specs.
	faults map[string]*faultState
}

// New creates an empty testbed. Every random draw the testbed ever makes
// derives from seed, so equal seeds reproduce equal runs.
func New(seed int64) *Testbed {
	return &Testbed{
		nfs:       map[string]*NF{},
		rng:       rand.New(rand.NewSource(seed)),
		badImages: map[string]float64{},
		faults:    map[string]*faultState{},
	}
}

// MarkBadImage registers a software version whose activation degrades
// packet discards by the given factor (>1), so the post-change comparison
// fails and workflows roll back.
func (tb *Testbed) MarkBadImage(version string, factor float64) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.badImages[version] = factor
}

func (tb *Testbed) badImageFactor(version string) (float64, bool) {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	f, ok := tb.badImages[version]
	return f, ok
}

// Add registers an NF; duplicate ids error.
func (tb *Testbed) Add(nf *NF) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if _, dup := tb.nfs[nf.ID]; dup {
		return fmt.Errorf("testbed: duplicate NF %q", nf.ID)
	}
	tb.nfs[nf.ID] = nf
	return nil
}

// MustAdd panics on error.
func (tb *Testbed) MustAdd(nf *NF) {
	if err := tb.Add(nf); err != nil {
		panic(err)
	}
}

// Get returns an NF by id.
func (tb *Testbed) Get(id string) (*NF, bool) {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	nf, ok := tb.nfs[id]
	return nf, ok
}

// Len reports the NF count.
func (tb *Testbed) Len() int {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	return len(tb.nfs)
}

func (tb *Testbed) randomFailure() bool {
	if tb.FailureRate <= 0 {
		return false
	}
	tb.rngMu.Lock()
	defer tb.rngMu.Unlock()
	return tb.rng.Float64() < tb.FailureRate
}

// Invoke implements orchestrator.Invoker: it parses the building-block
// REST path ("/api/bb/<block>" or "/api/bb/<block>/<nftype>") and executes
// the block against args["instance"].
func (tb *Testbed) Invoke(ctx context.Context, api string, args map[string]string) (map[string]string, error) {
	block := blockFromAPI(api)
	if block == "" {
		return nil, fmt.Errorf("testbed: unparseable block API %q", api)
	}
	if tb.Latency > 0 {
		select {
		case <-time.After(tb.Latency):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	instance := args["instance"]
	nf, ok := tb.Get(instance)
	if !ok && needsInstance(block) {
		return nil, fmt.Errorf("testbed: unknown instance %q", instance)
	}
	if tb.randomFailure() {
		return nil, fmt.Errorf("testbed: injected transient failure on %s/%s", block, instance)
	}
	if err := tb.applyFault(ctx, block, instance); err != nil {
		return nil, err
	}
	switch block {
	case "health-check":
		return tb.healthCheck(nf)
	case "conflict-check":
		return map[string]string{"status": "success"}, nil
	case "traffic-redirect":
		return tb.setTraffic(nf, true)
	case "traffic-restore":
		return tb.setTraffic(nf, false)
	case "software-upgrade":
		return tb.softwareUpgrade(nf, args["sw_version"])
	case "config-change":
		return tb.configChange(nf, args["config"])
	case "roll-back":
		return tb.rollBack(nf)
	case "pre-post-comparison":
		return tb.prePostCompare(nf)
	default:
		return nil, fmt.Errorf("testbed: building block %q not implemented on the testbed", block)
	}
}

func blockFromAPI(api string) string {
	const prefix = "/api/bb/"
	if !strings.HasPrefix(api, prefix) {
		// Bare block names are accepted too (unit tests, direct runners).
		if api != "" && !strings.Contains(api, "/") {
			return api
		}
		return ""
	}
	rest := strings.TrimPrefix(api, prefix)
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func needsInstance(block string) bool {
	switch block {
	case "conflict-check":
		return false
	}
	return true
}

func (tb *Testbed) healthCheck(nf *NF) (map[string]string, error) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	if !nf.reachable {
		return nil, fmt.Errorf("testbed: %s unreachable (ssh connectivity)", nf.ID)
	}
	// Health check also snapshots metrics for the later pre/post
	// comparison, mirroring the "configuration snapshot" MOP step.
	nf.snapshot = map[string]float64{}
	for k, v := range nf.metrics {
		nf.snapshot[k] = v
	}
	if !nf.healthy {
		return map[string]string{"status": "failure", "detail": "not operational"}, nil
	}
	return map[string]string{"status": "success"}, nil
}

func (tb *Testbed) setTraffic(nf *NF, redirected bool) (map[string]string, error) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	if !nf.reachable {
		return nil, fmt.Errorf("testbed: %s unreachable", nf.ID)
	}
	nf.trafficRedirected = redirected
	return map[string]string{"status": "success"}, nil
}

// softwareUpgrade installs and activates an image. Activation "reboots"
// the NF and shifts its metrics: discards improve, memory grows (the §5.1
// vCE observations).
func (tb *Testbed) softwareUpgrade(nf *NF, version string) (map[string]string, error) {
	if version == "" {
		return nil, fmt.Errorf("testbed: software-upgrade on %s without sw_version", nf.ID)
	}
	nf.mu.Lock()
	defer nf.mu.Unlock()
	if !nf.reachable {
		return nil, fmt.Errorf("testbed: %s unreachable (ssh connectivity)", nf.ID)
	}
	if version == nf.activeVersion {
		return map[string]string{"status": "success", "detail": "already active"}, nil
	}
	nf.installedVersions[version] = true
	nf.priorVersion = nf.activeVersion
	nf.activeVersion = version
	nf.rebootCount++
	if factor, bad := tb.badImageFactor(version); bad {
		nf.metrics["pkt_discards"] *= factor * tb.noiseFactor()
	} else {
		nf.metrics["pkt_discards"] *= 0.6 * tb.noiseFactor()
	}
	// A utilisation in percent saturates: unbounded, the compounding growth
	// reaches +Inf after ~14,000 upgrades of one long-lived instance.
	nf.metrics["mem_util"] = math.Min(100, nf.metrics["mem_util"]*1.05*tb.noiseFactor())
	return map[string]string{"status": "success", "activated": version}, nil
}

// noiseFactor draws a multiplicative metric-noise factor 1 ± MetricNoise·u
// from the seeded RNG (exactly 1 when noise is disabled), keeping noisy
// runs reproducible for a given testbed seed.
func (tb *Testbed) noiseFactor() float64 {
	if tb.MetricNoise <= 0 {
		return 1
	}
	tb.rngMu.Lock()
	defer tb.rngMu.Unlock()
	return 1 + tb.MetricNoise*(tb.rng.Float64()*2-1)
}

func (tb *Testbed) configChange(nf *NF, payload string) (map[string]string, error) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	if !nf.reachable {
		return nil, fmt.Errorf("testbed: %s unreachable", nf.ID)
	}
	if payload == "" {
		return nil, fmt.Errorf("testbed: config-change on %s without config", nf.ID)
	}
	// Payload format: comma-separated key=value pairs.
	for _, kv := range strings.Split(payload, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 || parts[0] == "" {
			return nil, fmt.Errorf("testbed: malformed config entry %q", kv)
		}
		nf.config[parts[0]] = parts[1]
	}
	return map[string]string{"status": "success"}, nil
}

func (tb *Testbed) rollBack(nf *NF) (map[string]string, error) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	if !nf.reachable {
		return nil, fmt.Errorf("testbed: %s unreachable", nf.ID)
	}
	if nf.priorVersion == "" {
		return map[string]string{"status": "failure", "detail": "no prior version"}, nil
	}
	nf.activeVersion, nf.priorVersion = nf.priorVersion, nf.activeVersion
	nf.rebootCount++
	return map[string]string{"status": "success", "activated": nf.activeVersion}, nil
}

// prePostCompare contrasts current metrics with the last health-check
// snapshot: large degradations (discards up >50%) fail the comparison.
func (tb *Testbed) prePostCompare(nf *NF) (map[string]string, error) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	if nf.snapshot == nil {
		return map[string]string{"verdict": "no-impact", "detail": "no pre snapshot"}, nil
	}
	pre, post := nf.snapshot["pkt_discards"], nf.metrics["pkt_discards"]
	switch {
	case post > pre*1.5:
		return map[string]string{"verdict": "degradation"}, nil
	case post < pre*0.9:
		return map[string]string{"verdict": "improvement"}, nil
	default:
		return map[string]string{"verdict": "no-impact"}, nil
	}
}

// InjectDegradation worsens an NF's metrics so that the next pre/post
// comparison fails — used to exercise rollback paths.
func (tb *Testbed) InjectDegradation(id string, factor float64) error {
	nf, ok := tb.Get(id)
	if !ok {
		return fmt.Errorf("testbed: unknown instance %q", id)
	}
	nf.mu.Lock()
	defer nf.mu.Unlock()
	nf.metrics["pkt_discards"] *= factor
	return nil
}

// PopulateVNFs adds the six evaluation vNFs of Section 4.1 — vCE (VPN),
// vGW, portal, CPE (SDWAN), vCOM and vRAR (cellular virtualized core) —
// count instances of each, all running version v1.
func PopulateVNFs(tb *Testbed, count int) []string {
	var ids []string
	for _, nfType := range []string{"vCE", "vGW", "portal", "CPE", "vCOM", "vRAR"} {
		for i := 0; i < count; i++ {
			id := fmt.Sprintf("%s-%03d", strings.ToLower(nfType), i)
			tb.MustAdd(NewNF(id, nfType, "v1"))
			ids = append(ids, id)
		}
	}
	return ids
}
