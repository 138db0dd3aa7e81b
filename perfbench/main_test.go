package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload, untraced and traced, at a tiny scale and
// checks that the last output line is a correct result carrying exactly
// the metrics BENCHMARK.json declares for the mode, each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a benchmark workload", w.Name)
		}
	}
	work := t.TempDir()
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", name, "--seed", "0", "--seconds", "0.5", "--trace", trace, "--scale", "0.1", "--work", work}
				if err := run(args, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func TestFrameScanner(t *testing.T) {
	var stream []byte
	frame := func(typ byte, payload []byte) {
		stream = append(stream, typ, byte(len(payload)), byte(len(payload)>>8), 0, 0)
		stream = append(stream, payload...)
	}
	seq := func(v uint64, extra int) []byte {
		p := make([]byte, 8+extra)
		for i := 0; i < 8; i++ {
			p[i] = byte(v >> (8 * i))
		}
		return p
	}
	frame(0x01, []byte("hello"))
	frame(0x04, seq(7, 300))
	frame(0x05, seq(9, 0))
	frame(0x09, nil)
	frame(0x06, seq(11, 0))
	for _, step := range []int{1, 3, 13, len(stream)} {
		var s frameScanner
		var got []uint64
		for off := 0; off < len(stream); off += step {
			s.feed(stream[off:min(off+step, len(stream))], func(typ byte, v uint64) { got = append(got, uint64(typ)<<56|v) })
		}
		want := []uint64{0x04<<56 | 7, 0x05<<56 | 9, 0x06<<56 | 11}
		if len(got) != len(want) {
			t.Fatalf("step %d: got %x, want %x", step, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: got %x, want %x", step, got, want)
			}
		}
	}
}
