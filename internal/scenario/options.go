package scenario

import (
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/storage"
)

// A group is one self-describing block of scenario options. Each group
// declares every projection of its fields in one place:
//
//   - key: its segment of the canonical cell key (Key), with defaults
//     normalized so equivalent configurations memoize together;
//   - pairKey: its contribution to the seed-pairing hash (ReplicateSeed),
//     or none — knob groups are excluded so a knob cell's replicates
//     share jitter seeds with its baseline and overheads stay paired;
//   - reseed: how a derived replicate seed lands in its seed fields;
//   - flags: the CLI flags it registers (RegisterFlags).
//
// Groups declare no grid axes: every Spec JSON key is one (AxisFields),
// and an axis value decodes as that key does in a spec file (SetField).
// Adding a scenario knob means adding its Spec field and one group (or
// one entry to an existing group) — memoization, replication, CLI
// parity and grid axes all follow.
type group struct {
	name     string
	identity bool // names the cell (vs tunes a knob); identity flags are wfsim-only
	key      func(s *Spec) string
	pairKey  func(s *Spec) (string, bool)
	reseed   func(s *Spec, derived uint64)
	flags    func(fs *flag.FlagSet, s *Spec)
}

// Replicate-seed salts decorrelate a replicate's failure-injection and
// outage streams from the provisioning stream that shares its derived
// seed.
const (
	failureSeedSalt uint64 = 0xFA11AB1E
	outageSeedSalt  uint64 = 0x0D07A6E5
)

// groups is the ordered option table. The order is load-bearing: the
// canonical key and the pairing hash are the "|"-joins of the group
// segments, and both must stay byte-identical to the pre-scenario
// hand-maintained encodings (see TestCellKeyMatchesOracle in harness).
var groups = []group{
	{
		name:     "cell",
		identity: true,
		key: func(s *Spec) string {
			return fmt.Sprintf("%s|%s|n=%d", s.App, s.Storage, s.Workers)
		},
		pairKey: func(s *Spec) (string, bool) {
			return fmt.Sprintf("%s|%s|%d", s.App, s.Storage, s.Workers), true
		},
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.StringVar(&s.App, "app", s.App, "application: "+strings.Join(apps.Names(), ", "))
			fs.StringVar(&s.Storage, "storage", s.Storage, "storage system: "+strings.Join(storage.Names(), ", "))
			fs.IntVar(&s.Workers, "nodes", s.Workers, "number of worker nodes")
		},
	},
	{
		name:     "workertype",
		identity: true,
		key: func(s *Spec) string {
			if s.WorkerType == "" {
				return "c1.xlarge"
			}
			return s.WorkerType
		},
		// The pairing hash keeps the raw (unnormalized) name — an
		// explicit c1.xlarge derives different replicate seeds than the
		// default, exactly as the pre-scenario hash did.
		pairKey: func(s *Spec) (string, bool) { return s.WorkerType, true },
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.StringVar(&s.WorkerType, "worker-type", s.WorkerType,
				"worker instance type: "+strings.Join(cluster.TypeNames(), ", ")+"; empty = c1.xlarge")
		},
	},
	{
		name:     "seed",
		identity: true,
		key:      func(s *Spec) string { return fmt.Sprintf("seed=%d", s.EffectiveSeed()) },
		reseed:   func(s *Spec, derived uint64) { s.Seed = derived },
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.Uint64Var(&s.Seed, "seed", s.Seed, "provisioning jitter seed (0 = the fixed default)")
		},
	},
	{
		name:   "appseed",
		key:    func(s *Spec) string { return fmt.Sprintf("appseed=%d", s.AppSeed) },
		reseed: func(s *Spec, derived uint64) { s.AppSeed = derived },
	},
	{
		name:     "scheduler",
		identity: true,
		key:      func(s *Spec) string { return fmt.Sprintf("aware=%t", s.DataAware) },
		pairKey:  func(s *Spec) (string, bool) { return fmt.Sprintf("%t", s.DataAware), true },
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.BoolVar(&s.DataAware, "data-aware", s.DataAware, "use the locality-aware scheduler (paper future work)")
		},
	},
	{
		name: "diskinit",
		key: func(s *Spec) string {
			return fmt.Sprintf("init=%t:%g", s.InitializeDisks, s.InitializeBytes)
		},
		// Only the on/off bit pairs replicate seeds; the byte count
		// never did (kept for hash compatibility).
		pairKey: func(s *Spec) (string, bool) { return fmt.Sprintf("%t", s.InitializeDisks), true },
	},
	{
		name: "failures",
		key: func(s *Spec) string {
			f := s.Faults.Resolved()
			return fmt.Sprintf("fail=%g:%d:%d", f.FailureRate, f.MaxRetries, f.FailureSeed)
		},
		reseed: func(s *Spec, derived uint64) {
			if s.FailureRate > 0 {
				s.FailureSeed = derived ^ failureSeedSalt
			}
		},
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.Float64Var(&s.FailureRate, "failure-rate", s.FailureRate,
				"inject transient task failures with this per-attempt probability (0 = paper's failure-free setting)")
			fs.IntVar(&s.MaxRetries, "max-retries", s.MaxRetries,
				"failed attempts allowed per task; 0 = DAGMan's default of 3")
			fs.Uint64Var(&s.FailureSeed, "failure-seed", s.FailureSeed,
				"failure-injection RNG seed; 0 = fixed default")
		},
	},
	{
		name: "outages",
		key: func(s *Spec) string {
			f := s.Faults.Resolved()
			return fmt.Sprintf("out=%g:%g:%d", f.OutageRate, f.OutageDuration, f.OutageSeed)
		},
		reseed: func(s *Spec, derived uint64) {
			if s.OutageRate > 0 {
				s.OutageSeed = derived ^ outageSeedSalt
			}
		},
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.Float64Var(&s.OutageRate, "outage-rate", s.OutageRate,
				"inject correlated node outages at this rate per node-hour (0 = paper's outage-free setting)")
			fs.Float64Var(&s.OutageDuration, "outage-duration", s.OutageDuration,
				"mean outage length in seconds; 0 = the default of 120")
			fs.Uint64Var(&s.OutageSeed, "outage-seed", s.OutageSeed,
				"outage-schedule RNG seed; 0 = fixed default")
		},
	},
	{
		name: "checkpointing",
		key:  func(s *Spec) string { return fmt.Sprintf("ckpt=%g", s.CheckpointInterval) },
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.Float64Var(&s.CheckpointInterval, "checkpoint-interval", s.CheckpointInterval,
				"write a checkpoint every this many seconds of computation and resume killed tasks from it (0 = no checkpointing)")
		},
	},
}

// Key renders the canonical memoization key: the "|"-join of every
// group's normalized segment. Equivalent configurations (an explicit
// c1.xlarge or seed 0x5EED versus the zero value; failure or outage
// knobs set while their rate is 0) render identical keys.
func Key(s *Spec) string {
	segs := make([]string, 0, len(groups))
	for _, g := range groups {
		segs = append(segs, g.key(s))
	}
	return strings.Join(segs, "|")
}

// PairKey renders the seed-pairing hash input: the "|"-join of the
// segments from groups that participate in replicate-seed derivation.
// Knob groups (failures, outages, checkpointing) and the seed fields
// themselves are excluded, so replicate r of a knob cell derives the
// same jitter seeds as replicate r of its knob-free baseline — paired
// overhead comparisons instead of confounded ones.
func PairKey(s *Spec) string {
	var segs []string
	for _, g := range groups {
		if g.pairKey == nil {
			continue
		}
		if seg, ok := g.pairKey(s); ok {
			segs = append(segs, seg)
		}
	}
	return strings.Join(segs, "|")
}

// ReplicateSeed derives the jitter seed for one replicate of a spec.
// Replicate 0 is the spec's own seed (the paper's fixed default when
// unset); higher replicates hash the pairing key so each cell's seed
// sequence depends only on its configuration, never on scheduling or
// batch position.
func ReplicateSeed(s *Spec, replicate int) uint64 {
	base := s.EffectiveSeed()
	if replicate == 0 {
		return base
	}
	r := rng.New((rng.HashString(PairKey(s)) ^ base) + uint64(replicate))
	v := r.Uint64()
	if v == 0 { // zero means "default" downstream; avoid colliding with it
		v = 1
	}
	return v
}

// Reseed lands one derived replicate seed in every seed field the
// spec's active options declare: provisioning and app jitter always,
// the failure and outage streams (salted) only when their rates are
// non-zero.
func Reseed(s *Spec, derived uint64) {
	for _, g := range groups {
		if g.reseed != nil {
			g.reseed(s, derived)
		}
	}
}

// RegisterFlags registers every group's CLI flags on fs, bound to s;
// current field values become the flag defaults. Identity flags (-app,
// -storage, -nodes, -worker-type, -seed, -data-aware) are registered
// only when identity is true — wfbench sweeps those axes itself and
// registers knob flags alone, wfsim registers everything.
func RegisterFlags(fs *flag.FlagSet, s *Spec, identity bool) {
	for _, g := range groups {
		if g.flags == nil || (g.identity && !identity) {
			continue
		}
		g.flags(fs, s)
	}
}

// FlagNames lists the flag names RegisterFlags(..., identity) would
// register — CLIs use it to reject scenario flags combined with -spec.
func FlagNames(identity bool) []string {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	var scratch Spec
	RegisterFlags(fs, &scratch, identity)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}

// SetField assigns one axis value to a spec field by its JSON name. The
// value is encoded as JSON and read into the spec by the spec-file
// decoder, so it decodes exactly as that key of a spec file does. NaN
// and infinities do not encode, and null is rejected because the
// decoder would leave the field alone.
func SetField(s *Spec, field string, v any) error {
	// JSON matches keys case-insensitively; the axis name must not.
	if !slices.Contains(AxisFields(), field) {
		return fmt.Errorf("scenario: unknown axis field %q (valid: %s)",
			field, strings.Join(AxisFields(), ", "))
	}
	value, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("scenario: axis %s: %w", field, err)
	}
	if string(value) == "null" {
		return fmt.Errorf("scenario: axis %s: null is not a value", field)
	}
	if err := strictUnmarshal(fmt.Appendf(nil, "{%q:%s}", field, value), s); err != nil {
		return fmt.Errorf("scenario: axis %s: %w", field, err)
	}
	return nil
}

// AxisFields lists every sweepable field name, sorted: Spec's JSON
// keys, including the promoted fault knobs.
func AxisFields() []string {
	var out []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Spec{})) {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.Anonymous && name != "" && name != "-" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
