package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRecordMatchesBenchmarkJSON runs a one-second served-mix in both
// modes and checks the last output line against BENCHMARK.json: exactly
// the end-to-end metrics untraced, exactly the per-layer ones traced,
// each with its declared unit, and no failed operation.
func TestRecordMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for trace, declared := range map[string][]struct{ Name, Unit string }{"0": bench.EndToEnd, "1": bench.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "served-mix", "--seed", "5", "--seconds", "1", "--trace", trace, "-workdir", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var rec record
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
			t.Fatalf("trace %s: last line is not a record: %v", trace, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d: %s", trace, rec.Correct, rec.Attempted, rec.Failed, stderr.String())
		}
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		var extra []string
		for name, m := range rec.Metrics {
			unit, ok := want[name]
			if !ok {
				extra = append(extra, name)
				continue
			}
			if m.Unit != unit {
				t.Errorf("trace %s: %s reported in %s, declared %s", trace, name, m.Unit, unit)
			}
			delete(want, name)
		}
		sort.Strings(extra)
		if len(extra) > 0 || len(want) > 0 {
			t.Errorf("trace %s: undeclared metrics %v, missing metrics %v", trace, extra, want)
		}
	}
}
