// Command bench2json converts `go test -bench -benchmem` text output on
// stdin into a JSON benchmark report on stdout (or -out FILE). It exists
// so `make bench-json` can persist perf trajectories (BENCH_PR2.json,
// ...) in a machine-diffable form without external tooling.
//
// Input lines like
//
//	pkg: smartndr/internal/core
//	BenchmarkOptimize-8   5   29671787 ns/op   3796 sta_visits/op   723744 B/op   374 allocs/op
//
// become
//
//	{"name":"Optimize","package":"smartndr/internal/core","procs":8,"iterations":5,
//	 "ns_per_op":29671787,"bytes_per_op":723744,"allocs_per_op":374,
//	 "metrics":{"sta_visits/op":3796}}
//
// Each benchmark records the package of the most recent "pkg:" line, so
// one report can span a multi-package `go test` run. Every value/unit
// pair is kept: the -benchmem units in their own fields, any other unit
// (b.ReportMetric output, MB/s) under metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"` // every other unit
}

// Report is the emitted document.
type Report struct {
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench2json:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		// Expect: name iters ns "ns/op" [value unit]...
		f := strings.Fields(line)
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		res := Result{Name: strings.TrimPrefix(f[0], "Benchmark"), Package: pkg}
		if dash := strings.LastIndex(res.Name, "-"); dash > 0 {
			if p, err := strconv.Atoi(res.Name[dash+1:]); err == nil {
				res.Procs = p
				res.Name = res.Name[:dash]
			}
		}
		var err error
		if res.Iterations, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			continue
		}
		if res.NsPerOp, err = strconv.ParseFloat(f[2], 64); err != nil {
			continue
		}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch unit := f[i+1]; unit {
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	return rep, nil
}
