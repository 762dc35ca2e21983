package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

// fingerprint identifies the host and the code a record was taken on.
// Records are compared only when everything but the commit matches.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// host is the fingerprint without the commit.
func (f fingerprint) host() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", f.CPU, f.NumCPU, f.GOMAXPROCS, f.GoVersion)
}

func (f fingerprint) String() string { return f.host() + " commit=" + f.Commit }

func hostFingerprint(root string) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitID is the git revision the binary was built from when the build
// saw a clean work tree, else a digest of the Go sources under root (a
// checkout without .git still gets a stable identity).
func commitID(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && !dirty {
			return "git:" + rev[:min(12, len(rev))]
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "reference.json" {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "src:" + hex.EncodeToString(h.Sum(nil)[:6])
}

// record is one run, as --out appends it (one JSON object per line).
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       bool        `json:"trace"`
	Result      result      `json:"result"`
	Problems    []string    `json:"problems,omitempty"`
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
}

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// verdict compares the untraced records of a base and a change for one
// workload and metric. A pair of sets taken on different hosts is "not
// gated": neither a regression nor a gain. Sets in which any run failed
// a cell are "not comparable": their timings are of wrong results.
// Otherwise a change whose median is worse than the base median by more
// than the metric's bound is a "regression" when it is also worse by
// more than the base's own interquartile spread, or when every base run
// beats every change run. When the base's spread is wider than the
// bound, the noise cannot tell, and the metric is "unresolved" unless
// every change run beats every base run. The rest is "ok".
type verdict struct {
	Workload, Metric string
	Base, Change     float64 // medians
	Worse            float64 // share by which the change is worse (negative: better)
	Spread           float64 // base interquartile range as a share of its median
	Status           string  // "not gated", "not comparable", "ok", "unresolved", "regression"
	Note             string
}

func compareRecords(base, change []record, bounds []bound) []verdict {
	byWL := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	bw, cw := byWL(base), byWL(change)
	var names []string
	for n := range bw {
		if _, ok := cw[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []verdict
	for _, wl := range names {
		hosts := map[string]bool{}
		for _, r := range append(append([]record(nil), bw[wl]...), cw[wl]...) {
			hosts[r.Fingerprint.host()] = true
		}
		for _, b := range bounds {
			v := verdict{Workload: wl, Metric: b.Name}
			bv, cv := metricValues(bw[wl], b.Name), metricValues(cw[wl], b.Name)
			v.Base, v.Change = median(bv), median(cv)
			if v.Base != 0 {
				v.Spread = (quantile(bv, 0.75) - quantile(bv, 0.25)) / v.Base
				v.Worse = (v.Change - v.Base) / v.Base
				if b.Better == "higher" {
					v.Worse = -v.Worse
				}
			}
			switch {
			case len(hosts) > 1:
				v.Status, v.Note = "not gated", "records come from different hosts"
			case anyFailed(bw[wl]) || anyFailed(cw[wl]):
				v.Status, v.Note = "not comparable", "a run failed cells"
			case v.Worse > b.Bound && (v.Worse > v.Spread || beats(bv, cv, b.Better)):
				v.Status = "regression"
			case v.Spread > b.Bound && !beats(cv, bv, b.Better):
				v.Status, v.Note = "unresolved", "the base's spread is wider than the bound"
			default:
				v.Status = "ok"
			}
			out = append(out, v)
		}
	}
	return out
}

func anyFailed(rs []record) bool {
	for _, r := range rs {
		if r.Result.Failed > 0 || !r.Result.Correct {
			return true
		}
	}
	return false
}

// beats reports whether every value of a is better than every value of b.
func beats(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if better == "higher" {
		return slices.Min(a) > slices.Max(b)
	}
	return slices.Max(a) < slices.Min(b)
}

func metricValues(rs []record, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}
