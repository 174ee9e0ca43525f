// Command benchjson converts `go test -bench` text output into a JSON
// document: the form cmd/benchguard reads (CI's BENCH_ppspeed.json and
// the committed bench/BENCH_ppspeed_baseline.json).
//
// Usage:
//
//	go test -run NONE -bench . -benchtime 1x ./... | benchjson -out BENCH.json
//	benchjson -match 'WireIngestProtect' -out BENCH_ppspeed.json < bench.txt
//
// -match keeps only benchmarks whose name matches the regexp, which lets
// one bench run be split into several documents.
// Non-benchmark lines (pkg headers, PASS/ok) are skipped; metadata lines
// (goos, goarch, cpu) are captured into the document header.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	// Name is the benchmark (and sub-benchmark) name with the -N
	// GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is the b.N the line reports.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline number.
	NsPerOp float64 `json:"ns_per_op"`
	// Extra holds any additional unit → value pairs (B/op, allocs/op,
	// custom ReportMetric units).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Doc is the emitted artifact.
type Doc struct {
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches e.g. `BenchmarkFoo/sub-8   	 100	  1234 ns/op	 56 B/op`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	out := ""
	var match *regexp.Regexp
	args := os.Args[1:]
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-out":
			if i+1 >= len(args) {
				fmt.Fprintln(os.Stderr, "benchjson: -out needs a path")
				os.Exit(2)
			}
			i++
			out = args[i]
		case "-match":
			if i+1 >= len(args) {
				fmt.Fprintln(os.Stderr, "benchjson: -match needs a regexp")
				os.Exit(2)
			}
			i++
			var err error
			if match, err = regexp.Compile(args[i]); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: bad -match: %v\n", err)
				os.Exit(2)
			}
		default:
			fmt.Fprintf(os.Stderr, "benchjson: unknown argument %q\n", args[i])
			os.Exit(2)
		}
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if match != nil {
		doc.filter(match)
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if out == "" {
		os.Stdout.Write(raw)
		return
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// filter keeps only the benchmarks whose name matches re.
func (d *Doc) filter(re *regexp.Regexp) {
	kept := d.Benchmarks[:0]
	for _, b := range d.Benchmarks {
		if re.MatchString(b.Name) {
			kept = append(kept, b)
		}
	}
	d.Benchmarks = kept
}

// parse reads `go test -bench` output into a Doc.
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Benchmarks: []Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		res := Result{Name: m[1], Iterations: iters}
		// The tail alternates value/unit: `1234 ns/op 56 B/op 2 allocs/op`.
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("line %q: odd metric fields", line)
		}
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: %w", line, err)
			}
			if fields[i+1] == "ns/op" {
				res.NsPerOp = v
				continue
			}
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[fields[i+1]] = v
		}
		doc.Benchmarks = append(doc.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}
