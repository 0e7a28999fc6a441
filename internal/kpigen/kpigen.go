// Package kpigen generates synthetic performance-counter time-series for
// the change impact verifier's evaluation: seeded, reproducible series with
// daily seasonality, gaussian noise, heavy-tailed spikes, missing samples,
// and injected level-shift impacts with ground-truth labels.
//
// It substitutes for the production KPI feeds of the paper (Section 4.3
// verified 60 operations-labeled impacts; our labels come from the
// injection list, letting benchmarks measure detection accuracy the same
// way).
package kpigen

import (
	"fmt"
	"math"
	"math/rand"
)

// CounterSpec describes one performance counter's baseline behaviour.
type CounterSpec struct {
	Name string
	// Base is the pre-impact level around which samples oscillate.
	Base float64
	// DailyAmplitude is the fractional peak of the sinusoidal daily cycle
	// (cellular KPIs are strongly diurnal).
	DailyAmplitude float64
	// Noise is the relative standard deviation of gaussian noise.
	Noise float64
	// SpikeProb is the per-sample probability of a heavy-tailed spike
	// (x3-x8 the base), modeling transient congestion.
	SpikeProb float64
}

// Impact is one injected ground-truth level change.
type Impact struct {
	// Instance and Counter select the affected series.
	Instance string
	Counter  string
	// At is the sample index of the level change.
	At int
	// Factor multiplies the base level from At onward: >1 degrades
	// error-type counters / improves throughput-type ones; the verifier
	// only sees the series.
	Factor float64
}

// Config parameterizes a generation run.
type Config struct {
	Seed          int64
	Days          int
	SamplesPerDay int
	Counters      []CounterSpec
	// MissingProb drops samples (NaN) to model data-integrity issues
	// (Section 5.3). The verifier must be robust to these.
	MissingProb float64
}

// Dataset holds generated series: instance -> counter -> samples.
type Dataset struct {
	Length int
	data   map[string]map[string][]float64
}

// Generate produces series for every instance and counter.
func Generate(instances []string, cfg Config, impacts []Impact) (*Dataset, error) {
	if cfg.Days <= 0 || cfg.SamplesPerDay <= 0 {
		return nil, fmt.Errorf("kpigen: Days and SamplesPerDay must be positive")
	}
	if len(cfg.Counters) == 0 {
		return nil, fmt.Errorf("kpigen: no counters configured")
	}
	length := cfg.Days * cfg.SamplesPerDay
	byInstance := map[string][]Impact{}
	for _, imp := range impacts {
		if imp.At < 0 || imp.At >= length {
			return nil, fmt.Errorf("kpigen: impact at %d outside series length %d", imp.At, length)
		}
		byInstance[imp.Instance] = append(byInstance[imp.Instance], imp)
	}
	ds := &Dataset{
		Length: length,
		data:   make(map[string]map[string][]float64, len(instances)),
	}
	for _, inst := range instances {
		// Stable per-instance stream so adding instances does not perturb
		// existing ones.
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(hash(inst))))
		perCounter := make(map[string][]float64, len(cfg.Counters))
		// Per-instance scale spread: markets differ in traffic volume.
		instScale := 0.5 + rng.Float64()
		for _, spec := range cfg.Counters {
			series := make([]float64, length)
			level := spec.Base * instScale
			for t := 0; t < length; t++ {
				factor := 1.0
				for _, imp := range byInstance[inst] {
					if imp.Counter == spec.Name && t >= imp.At {
						factor *= imp.Factor
					}
				}
				phase := 2 * math.Pi * float64(t%cfg.SamplesPerDay) / float64(cfg.SamplesPerDay)
				seasonal := 1 + spec.DailyAmplitude*math.Sin(phase)
				v := level * factor * seasonal * (1 + spec.Noise*rng.NormFloat64())
				if spec.SpikeProb > 0 && rng.Float64() < spec.SpikeProb {
					v *= 3 + 5*rng.Float64()
				}
				if v < 0 {
					v = 0
				}
				if cfg.MissingProb > 0 && rng.Float64() < cfg.MissingProb {
					v = math.NaN()
				}
				series[t] = v
			}
			perCounter[spec.Name] = series
		}
		ds.data[inst] = perCounter
	}
	return ds, nil
}

func hash(s string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Series returns the samples for one instance and counter (nil if absent).
func (d *Dataset) Series(instance, counter string) []float64 {
	if m := d.data[instance]; m != nil {
		return m[counter]
	}
	return nil
}

// Window extracts samples [from, to) for one instance/counter, dropping
// NaN (missing) samples.
func (d *Dataset) Window(instance, counter string, from, to int) []float64 {
	s := d.Series(instance, counter)
	if s == nil {
		return nil
	}
	if from < 0 {
		from = 0
	}
	if to > len(s) {
		to = len(s)
	}
	if from >= to {
		return nil
	}
	out := make([]float64, 0, to-from)
	for _, v := range s[from:to] {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// DefaultCellularCounters returns counter specs modeling the 4G/5G KPIs the
// paper monitors: accessibility, retainability, throughput, latency, and
// the cause-code counters behind voice call drops (Section 2.2).
func DefaultCellularCounters() []CounterSpec {
	return []CounterSpec{
		{Name: "rrc_attempts", Base: 5000, DailyAmplitude: 0.4, Noise: 0.05},
		{Name: "rrc_success", Base: 4900, DailyAmplitude: 0.4, Noise: 0.05},
		{Name: "erab_attempts", Base: 4500, DailyAmplitude: 0.4, Noise: 0.05},
		{Name: "erab_success", Base: 4450, DailyAmplitude: 0.4, Noise: 0.05},
		{Name: "volte_calls", Base: 1200, DailyAmplitude: 0.5, Noise: 0.06},
		{Name: "volte_drops", Base: 12, DailyAmplitude: 0.3, Noise: 0.25, SpikeProb: 0.002},
		{Name: "drop_cause_rf", Base: 5, DailyAmplitude: 0.3, Noise: 0.3, SpikeProb: 0.002},
		{Name: "drop_cause_rlf", Base: 4, DailyAmplitude: 0.3, Noise: 0.3, SpikeProb: 0.002},
		{Name: "drop_cause_ho", Base: 3, DailyAmplitude: 0.3, Noise: 0.3, SpikeProb: 0.002},
		{Name: "dl_volume_mb", Base: 80000, DailyAmplitude: 0.5, Noise: 0.08},
		{Name: "dl_prb_used", Base: 60, DailyAmplitude: 0.5, Noise: 0.08},
		{Name: "dl_throughput_num", Base: 45000, DailyAmplitude: 0.45, Noise: 0.07},
		{Name: "dl_throughput_den", Base: 1000, DailyAmplitude: 0.45, Noise: 0.07},
		{Name: "latency_sum_ms", Base: 30000, DailyAmplitude: 0.2, Noise: 0.1},
		{Name: "latency_cnt", Base: 1000, DailyAmplitude: 0.2, Noise: 0.1},
		{Name: "ho_attempts", Base: 800, DailyAmplitude: 0.4, Noise: 0.08},
		{Name: "ho_success", Base: 780, DailyAmplitude: 0.4, Noise: 0.08},
		{Name: "cpu_util", Base: 45, DailyAmplitude: 0.3, Noise: 0.05},
		{Name: "mem_util", Base: 60, DailyAmplitude: 0.1, Noise: 0.03},
		{Name: "pkt_discards", Base: 20, DailyAmplitude: 0.3, Noise: 0.3, SpikeProb: 0.003},
	}
}
