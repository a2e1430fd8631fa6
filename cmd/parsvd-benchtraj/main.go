// Command parsvd-benchtraj records and compares benchmark trajectories.
// It is the self-contained replacement for benchstat that the CI
// bench-trajectory job runs on every push:
//
//	go test ./... -bench <pat> -benchmem -count 5 | parsvd-benchtraj emit -runid "$GITHUB_RUN_ID" -o BENCH_$GITHUB_RUN_ID.json
//	parsvd-benchtraj compare -baseline BENCH_baseline.json -current BENCH_$GITHUB_RUN_ID.json
//
// emit parses `go test -bench` output from stdin into a JSON run record:
// every sample of every benchmark, plus the environment (goos, goarch, the
// cpu line and the active GEMM micro-kernel) the numbers were taken on.
//
// compare judges a current run against a committed baseline:
//
//   - any increase in median allocs/op fails, on any machine — allocation
//     counts are deterministic, so this gate always holds;
//   - a median ns/op regression beyond -max-regress percent (default 10)
//     fails when the two runs come from matching environments (or always,
//     with -strict); timings from different machines are reported but not
//     gated, since a laptop baseline says nothing about a CI runner.
//
// The table also shows each benchmark's median B/op next to its allocs/op,
// for reading only: no gate holds bytes.
//
// The exit status is 1 when any gate fails, so the CI job fails with it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"goparsvd/internal/mat"
)

// Run is one recorded benchmark session.
type Run struct {
	RunID   string  `json:"runid"`
	GoOS    string  `json:"goos"`
	GoArch  string  `json:"goarch"`
	CPU     string  `json:"cpu"`
	Kernel  string  `json:"kernel"`
	Benches []Bench `json:"benchmarks"`
}

// Bench holds every sample of one benchmark (multiple with -count).
type Bench struct {
	Name     string    `json:"name"`
	NsOp     []float64 `json:"ns_op"`
	BytesOp  []float64 `json:"bytes_op"`
	AllocsOp []float64 `json:"allocs_op"`
	// WireBPush is the custom wire-B/push metric the sketched-push
	// benchmarks report: bytes per push that cross the ingest wire.
	// -1 when the benchmark does not report it.
	WireBPush []float64 `json:"wire_b_push,omitempty"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "emit":
		cmdEmit(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  go test -bench ... -benchmem | parsvd-benchtraj emit -runid ID [-o FILE]
  parsvd-benchtraj compare -baseline FILE -current FILE [-max-regress PCT] [-strict]`)
	os.Exit(2)
}

func cmdEmit(args []string) {
	fs := flag.NewFlagSet("emit", flag.ExitOnError)
	runid := fs.String("runid", "local", "identifier stamped into the record")
	out := fs.String("o", "", "output file (default BENCH_<runid>.json)")
	fs.Parse(args)

	run, err := parseBenchOutput(os.Stdin)
	if err != nil {
		fatal(err)
	}
	run.RunID = *runid
	run.Kernel = mat.KernelName()
	if len(run.Benches) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *runid + ".json"
	}
	data, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "recorded %d benchmarks to %s\n", len(run.Benches), path)
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("baseline", "BENCH_baseline.json", "baseline run record")
	curPath := fs.String("current", "", "current run record")
	maxRegress := fs.Float64("max-regress", 10, "max tolerated median ns/op regression, percent")
	strict := fs.Bool("strict", false, "gate ns/op even across differing environments")
	fs.Parse(args)
	if *curPath == "" {
		usage()
	}
	base, err := loadRun(*basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadRun(*curPath)
	if err != nil {
		fatal(err)
	}
	report, failures := compareRuns(base, cur, *maxRegress, *strict)
	fmt.Print(report)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nFAIL: %d benchmark gate(s) violated:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Println("\nall benchmark gates passed")
}

func loadRun(path string) (*Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Run
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// parseBenchOutput scans `go test -bench` output and collects every
// benchmark sample plus the environment header lines.
func parseBenchOutput(r io.Reader) (*Run, error) {
	run := &Run{GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	byName := map[string]*Bench{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			run.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
			continue
		case strings.HasPrefix(line, "goarch: "):
			run.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
			continue
		case strings.HasPrefix(line, "cpu: "):
			run.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
			continue
		}
		name, ns, bytesOp, allocs, wire, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		b := byName[name]
		if b == nil {
			b = &Bench{Name: name}
			byName[name] = b
			order = append(order, name)
		}
		b.NsOp = append(b.NsOp, ns)
		b.BytesOp = append(b.BytesOp, bytesOp)
		b.AllocsOp = append(b.AllocsOp, allocs)
		b.WireBPush = append(b.WireBPush, wire)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range order {
		run.Benches = append(run.Benches, *byName[n])
	}
	return run, nil
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkMulIntoSquare256-8   2940   841887 ns/op   0 B/op   0 allocs/op
//
// The -P GOMAXPROCS suffix is stripped so records from hosts with different
// core counts compare. Lines without -benchmem report no B/op / allocs/op;
// those record -1 ("unknown"), which the alloc gate treats as absent. The
// same sentinel covers wire-B/push, the custom b.ReportMetric unit of the
// sketched-push traffic benchmarks.
func parseBenchLine(line string) (name string, ns, bytesOp, allocs, wire float64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", 0, 0, 0, 0, false
	}
	name = f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	ns, bytesOp, allocs, wire = -1, -1, -1, -1
	for i := 2; i < len(f); i++ {
		v, err := strconv.ParseFloat(f[i-1], 64)
		if err != nil {
			continue
		}
		switch f[i] {
		case "ns/op":
			ns = v
		case "B/op":
			bytesOp = v
		case "allocs/op":
			allocs = v
		case "wire-B/push":
			wire = v
		}
	}
	if ns < 0 {
		return "", 0, 0, 0, 0, false
	}
	return name, ns, bytesOp, allocs, wire, true
}

// cell renders a column a benchmark may not report (B/op and allocs/op
// without -benchmem, wire-B/push on most): the -1 sentinel shows as "-".
func cell(v float64) string {
	if v < 0 {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return -1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// envMatches reports whether two runs were taken on comparable hardware and
// kernel configuration, making their timings directly comparable.
func envMatches(a, b *Run) bool {
	return a.GoOS == b.GoOS && a.GoArch == b.GoArch && a.CPU == b.CPU && a.Kernel == b.Kernel
}

// compareRuns renders a trajectory table and returns the gate violations.
func compareRuns(base, cur *Run, maxRegress float64, strict bool) (string, []string) {
	var b strings.Builder
	var failures []string
	gateNs := strict || envMatches(base, cur)
	fmt.Fprintf(&b, "baseline %s (%s/%s, %s, kernel %s)\n", base.RunID, base.GoOS, base.GoArch, base.CPU, base.Kernel)
	fmt.Fprintf(&b, "current  %s (%s/%s, %s, kernel %s)\n", cur.RunID, cur.GoOS, cur.GoArch, cur.CPU, cur.Kernel)
	if !gateNs {
		fmt.Fprintf(&b, "environments differ: ns/op reported but not gated (use -strict to gate anyway)\n")
	}
	fmt.Fprintf(&b, "\n%-52s %14s %14s %8s %10s %10s %12s\n", "benchmark", "old ns/op", "new ns/op", "delta", "B/op", "allocs/op", "wire-B/push")

	baseBy := map[string]*Bench{}
	for i := range base.Benches {
		baseBy[base.Benches[i].Name] = &base.Benches[i]
	}
	for i := range cur.Benches {
		cb := &cur.Benches[i]
		bb := baseBy[cb.Name]
		if bb == nil {
			fmt.Fprintf(&b, "%-52s %14s %14.0f %8s %10s %10s %12s  (new)\n",
				cb.Name, "-", median(cb.NsOp), "-", cell(median(cb.BytesOp)), cell(median(cb.AllocsOp)), cell(median(cb.WireBPush)))
			continue
		}
		oldNs, newNs := median(bb.NsOp), median(cb.NsOp)
		delta := 100 * (newNs - oldNs) / oldNs
		oldAllocs, newAllocs := median(bb.AllocsOp), median(cb.AllocsOp)
		oldWire, newWire := median(bb.WireBPush), median(cb.WireBPush)
		mark := ""
		if gateNs && delta > maxRegress {
			mark = "  REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: ns/op %.0f -> %.0f (%+.1f%%, limit +%.1f%%)",
					cb.Name, oldNs, newNs, delta, maxRegress))
		}
		if oldAllocs >= 0 && newAllocs > oldAllocs {
			mark += "  ALLOC-INCREASE"
			failures = append(failures,
				fmt.Sprintf("%s: allocs/op %.0f -> %.0f", cb.Name, oldAllocs, newAllocs))
		}
		// Wire traffic per push is deterministic (a geometry, not a
		// timing), so any increase is a real compression regression and
		// gates on every machine — the same contract as allocs/op.
		if oldWire >= 0 && newWire > oldWire {
			mark += "  WIRE-INCREASE"
			failures = append(failures,
				fmt.Sprintf("%s: wire-B/push %.0f -> %.0f", cb.Name, oldWire, newWire))
		}
		fmt.Fprintf(&b, "%-52s %14.0f %14.0f %+7.1f%% %10s %10s %12s%s\n",
			cb.Name, oldNs, newNs, delta, cell(median(cb.BytesOp)), cell(newAllocs), cell(newWire), mark)
	}
	for _, bb := range base.Benches {
		found := false
		for _, cb := range cur.Benches {
			if cb.Name == bb.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(&b, "%-52s %14.0f %14s — vanished from the current run\n",
				bb.Name, median(bb.NsOp), "-")
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from current run", bb.Name))
		}
	}
	return b.String(), failures
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtraj:", err)
	os.Exit(1)
}
