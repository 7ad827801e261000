package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/wrongpath"
)

// coreLeaf is one leaf field of core.Config: its path and an edit that
// changes only that leaf.
type coreLeaf struct {
	path string
	edit func(*core.Config)
}

// coreLeaves walks core.Config by reflection and returns every leaf
// field reachable from DefaultConfig, each functional-unit map entry's
// fields included. A field of a kind the walker cannot perturb fails
// the test, so a new field is never silently skipped.
func coreLeaves(t *testing.T) []coreLeaf {
	t.Helper()
	var leaves []coreLeaf
	// walk visits the node that visit exposes: visit(c, f) calls f on an
	// addressable copy of the node inside c and writes it back.
	var walk func(path string, v reflect.Value, visit func(*core.Config, func(reflect.Value)))
	walk = func(path string, v reflect.Value, visit func(*core.Config, func(reflect.Value))) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				i := i
				walk(path+"."+v.Type().Field(i).Name, v.Field(i), func(c *core.Config, f func(reflect.Value)) {
					visit(c, func(s reflect.Value) { f(s.Field(i)) })
				})
			}
		case reflect.Map:
			keys := v.MapKeys()
			sort.Slice(keys, func(a, b int) bool { return fmt.Sprint(keys[a]) < fmt.Sprint(keys[b]) })
			for _, k := range keys {
				k := k
				walk(fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k), func(c *core.Config, f func(reflect.Value)) {
					visit(c, func(m reflect.Value) {
						e := reflect.New(m.Type().Elem()).Elem()
						e.Set(m.MapIndex(k))
						f(e)
						m.SetMapIndex(k, e)
					})
				})
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Bool, reflect.String, reflect.Float32, reflect.Float64:
			leaves = append(leaves, coreLeaf{path, func(c *core.Config) { visit(c, perturb) }})
		default:
			t.Fatalf("%s: cannot perturb a %v field; extend coreLeaves", path, v.Kind())
		}
	}
	def := core.DefaultConfig()
	walk("Core", reflect.ValueOf(def), func(c *core.Config, f func(reflect.Value)) {
		f(reflect.ValueOf(c).Elem())
	})
	return leaves
}

// perturb changes a leaf value to a different one of the same kind.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	}
}

// TestFingerprintCoversEveryCoreField: changing any single leaf of the
// core configuration (each functional-unit entry's fields included)
// changes the fingerprint, and every such variant is distinct. The lane
// size alone is excluded: lane batching is bit-exact.
func TestFingerprintCoversEveryCoreField(t *testing.T) {
	base := Default(wrongpath.Conv)
	baseFP := base.Fingerprint()
	seen := map[string]string{}
	leaves := coreLeaves(t)
	for _, leaf := range leaves {
		cfg := Default(wrongpath.Conv)
		leaf.edit(&cfg.Core)
		if reflect.DeepEqual(cfg.Core, base.Core) {
			t.Fatalf("%s: edit left the core configuration unchanged", leaf.path)
		}
		fp := cfg.Fingerprint()
		if leaf.path == "Core.Batch" {
			if fp != baseFP {
				t.Errorf("Core.Batch changed the fingerprint; lane size must not be part of it")
			}
			continue
		}
		if fp == baseFP {
			t.Errorf("%s: changing it keeps the default fingerprint", leaf.path)
			continue
		}
		if other, dup := seen[fp]; dup {
			t.Errorf("%s and %s share one fingerprint", leaf.path, other)
		}
		seen[fp] = leaf.path
	}
	// Fields a summary of the core once left out must be among those
	// walked.
	for _, want := range []string{
		"Core.BranchPred.Predictor", "Core.BranchPred.HistoryLen", "Core.BranchPred.ChoiceBits",
		"Core.Hierarchy.NextLinePrefetch", "Core.Hierarchy.DTLB.PageBits",
		"Core.FUs[alu].Count", "Core.FUs[fpdiv].Pipelined",
	} {
		if !walked(leaves, want) {
			t.Errorf("walk missed %s", want)
		}
	}
}

func walked(leaves []coreLeaf, path string) bool {
	for _, l := range leaves {
		if l.path == path {
			return true
		}
	}
	return false
}

// TestFingerprintRunFields: the instruction budget, warming and queue
// lookahead change the fingerprint; the technique and host-side fields
// do not.
func TestFingerprintRunFields(t *testing.T) {
	baseFP := Default(wrongpath.Conv).Fingerprint()
	for name, edit := range map[string]func(*Config){
		"MaxInsts":       func(c *Config) { c.MaxInsts = 1000 },
		"WarmupInsts":    func(c *Config) { c.WarmupInsts = 1000 },
		"QueueLookahead": func(c *Config) { c.QueueLookahead = 4096 },
	} {
		cfg := Default(wrongpath.Conv)
		edit(&cfg)
		if cfg.Fingerprint() == baseFP {
			t.Errorf("%s: changing it keeps the default fingerprint", name)
		}
	}
	for name, edit := range map[string]func(*Config){
		"WP":               func(c *Config) { c.WP = wrongpath.WPEmul },
		"ParallelFrontend": func(c *Config) { c.ParallelFrontend = true },
		"Watchdog":         func(c *Config) { c.Watchdog = 1 },
		"Degrade":          func(c *Config) { c.Degrade = DegradePolicy{MaxRetries: 2} },
		"ObsLabel":         func(c *Config) { c.ObsLabel = "gap/bfs" },
		"Checkpoint":       func(c *Config) { c.CheckpointDir, c.CheckpointEvery = "ckpt", 1000 },
	} {
		cfg := Default(wrongpath.Conv)
		edit(&cfg)
		if cfg.Fingerprint() != baseFP {
			t.Errorf("%s changed the fingerprint; it cannot change results", name)
		}
	}
}
