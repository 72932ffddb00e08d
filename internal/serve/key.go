// Package serve puts a long-running HTTP daemon in front of the
// scenario runner: a bounded submission queue, a scheduler that runs
// work units from all queued scenarios on one shared worker pool, and a
// content-addressed result cache that makes repeated sweep points free
// across submissions. See DESIGN.md, "Serving layer".
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"

	"acesim/internal/collectives"
	"acesim/internal/fault"
	"acesim/internal/graph"
	"acesim/internal/noc"
	"acesim/internal/scenario"
)

// SchemaVersion stamps every cache key with the serving layer's result
// schema generation. Bump it whenever a change alters any unit metric
// (new metric, renamed metric, semantic change to a value) without
// changing the unit spec itself — stale entries then miss instead of
// returning results from the old code.
const SchemaVersion = "acesim-serve-v1"

// codeVersion resolves the code stamp folded into every cache key:
// SchemaVersion plus the VCS revision when the binary carries one (so a
// daemon rebuilt from different code never serves the old build's
// results, even if SchemaVersion was not bumped).
func codeVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return SchemaVersion + "+" + s.Value
			}
		}
	}
	return SchemaVersion
}

// unitKey is the canonicalized, field-ordered form of one work unit:
// everything that influences the unit's metrics and nothing that does
// not (expansion index, originating job index, file spellings). Two
// scenario files with different JSON key order, different topology
// spellings ("4x2x2" vs {"dims":[...]}) or aliased workload names
// produce byte-identical key documents — and any difference in engine,
// trace or power configuration produces a different one.
type unitKey struct {
	Version string              `json:"v"`
	Kind    string              `json:"kind"`
	Traced  bool                `json:"traced,omitempty"`
	Engine  string              `json:"engine,omitempty"`
	Topo    Topo                `json:"topo,omitempty"`
	Preset  string              `json:"preset,omitempty"`
	Fast    bool                `json:"fast_granularity,omitempty"`
	Over    *scenario.Overrides `json:"overrides,omitempty"`

	Collective string `json:"collective,omitempty"`
	Bytes      int64  `json:"bytes,omitempty"`

	Workload   string `json:"workload,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	DLRMOpt    bool   `json:"dlrm_optimized,omitempty"`
	Util       bool   `json:"utilization,omitempty"`

	GEMMN    int `json:"gemm_n,omitempty"`
	EmbBatch int `json:"emb_batch,omitempty"`

	SubJobs     []subKey `json:"jobs,omitempty"`
	Arbitration string   `json:"arbitration,omitempty"`

	GraphSHA string                 `json:"graph_sha,omitempty"`
	Pipeline *scenario.PipelineSpec `json:"pipeline,omitempty"`

	Events   []fault.Event   `json:"events,omitempty"`
	Recovery *fault.Recovery `json:"recovery,omitempty"`
	Power    *powerKey       `json:"power,omitempty"`
}

// Topo aliases the dimension list so an empty topology (microbench
// units run the fixed Section III platform) marshals as absent.
type Topo []noc.DimSpec

// subKey is the canonical form of one multijob sub-job. Expansion has
// already defaulted names and canonicalized workload aliases.
type subKey struct {
	Name       string  `json:"name"`
	Placement  string  `json:"placement"`
	Workload   string  `json:"workload,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Collective string  `json:"collective,omitempty"`
	Bytes      int64   `json:"bytes,omitempty"`
	Repeat     int     `json:"repeat,omitempty"`
	StartAtUs  float64 `json:"start_at_us,omitempty"`
}

// powerKey is the canonical form of the scenario power block: only an
// enabled block reaches a Unit, so Enabled itself is not a field.
type powerKey struct {
	WindowUs float64                  `json:"window_us,omitempty"`
	Coeff    *scenario.CoeffOverrides `json:"coefficients,omitempty"`
}

// UnitKey computes the content address of one expanded work unit: the
// SHA-256 of its canonical field-ordered JSON document, stamped with
// the code version. traced must reflect whether the unit will run with
// the span collector on (trace metrics land in the result). Graph-file
// units are addressed by the file's content hash, not its path, so a
// renamed copy still hits and an edited file misses.
func UnitKey(u scenario.Unit, traced bool, version string) (string, error) {
	k := unitKey{
		Version: version,
		Kind:    string(u.Kind),
		Traced:  traced,
	}
	if u.Kind != scenario.KindMicrobench {
		k.Engine = u.Engine.String()
		k.Topo = Topo(u.Topo.Dims)
		k.Preset = u.Preset.String()
		k.Fast = u.FastGranularity
		k.Over = u.Overrides
	}
	switch u.Kind {
	case scenario.KindCollective:
		k.Collective = u.Collective.String()
		k.Bytes = u.Bytes
	case scenario.KindTraining:
		k.Workload = u.Workload
		k.Iterations = u.Iterations
		k.DLRMOpt = u.DLRMOptimized
		k.Util = u.Utilization
	case scenario.KindMicrobench:
		k.Bytes = u.Bytes
		k.GEMMN = u.Kernel.GEMMN
		k.EmbBatch = u.Kernel.EmbBatch
	case scenario.KindMultiJob:
		arb, err := collectives.ParseArbitration(u.Arbitration)
		if err != nil {
			return "", fmt.Errorf("serve: unit %d: %w", u.Index, err)
		}
		k.Arbitration = arb.String()
		k.SubJobs = make([]subKey, len(u.SubJobs))
		for i, sj := range u.SubJobs {
			sk := subKey{
				Name:       sj.Name,
				Placement:  sj.Placement,
				Workload:   sj.Workload,
				Iterations: sj.Iterations,
				StartAtUs:  sj.StartAtUs,
			}
			if sk.Placement == "" {
				sk.Placement = "shared"
			}
			if !sj.IsTraining() {
				ck, err := scenario.ParseCollective(sj.Collective)
				if err != nil {
					return "", fmt.Errorf("serve: unit %d sub-job %s: %w", u.Index, sj.Name, err)
				}
				sk.Collective = ck.String()
				sk.Bytes = sj.StreamBytes()
				sk.Repeat = sj.Repeat
				if sk.Repeat == 0 {
					sk.Repeat = 1 // the runtime's default stream count
				}
			}
			k.SubJobs[i] = sk
		}
	case scenario.KindGraph:
		if u.GraphFile != "" {
			b, err := os.ReadFile(u.GraphFile)
			if err != nil {
				return "", fmt.Errorf("serve: hashing graph file: %w", err)
			}
			sum := sha256.Sum256(b)
			k.GraphSHA = hex.EncodeToString(sum[:])
		}
		if p := u.Pipeline; p != nil {
			cp := *p
			sched, err := graph.ParsePipeSchedule(p.Schedule)
			if err != nil {
				return "", fmt.Errorf("serve: unit %d pipeline: %w", u.Index, err)
			}
			cp.Schedule = sched.String()
			k.Pipeline = &cp
		}
	default:
		return "", fmt.Errorf("serve: unknown unit kind %q", u.Kind)
	}
	k.Events = u.Events
	k.Recovery = u.Recovery
	if u.Power != nil && u.Power.Enabled {
		k.Power = &powerKey{WindowUs: u.Power.WindowUs, Coeff: u.Power.Coefficients}
	}
	doc, err := json.Marshal(k)
	if err != nil {
		return "", fmt.Errorf("serve: canonicalizing unit %d: %w", u.Index, err)
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
}
