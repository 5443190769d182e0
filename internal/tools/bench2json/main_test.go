package main

import (
	"reflect"
	"strings"
	"testing"
)

// A two-package `go test -bench -benchmem` transcript: the root package's
// benches must keep the root label after a later pkg: line, and units
// beyond B/op and allocs/op (b.ReportMetric output, MB/s) must survive.
const twoPackageRun = `goos: linux
goarch: amd64
pkg: smartndr
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFlowSmart-2   	      88	  13418076 ns/op	    12.50 core.cleanup_ms/op	 5686610 B/op	  100644 allocs/op
BenchmarkMonteCarlo100 	      50	  19920965 ns/op	  534979 B/op	     174 allocs/op
PASS
ok  	smartndr	6.140s
goos: linux
goarch: amd64
pkg: smartndr/internal/serve
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServeFlowCold-2   	      70	  16000000 ns/op	   3796 sta_visits/op	  1.5 MB/s	 2048 B/op	  31 allocs/op
PASS
ok  	smartndr/internal/serve	3.2s
`

func TestParseTwoPackages(t *testing.T) {
	rep, err := parse(strings.NewReader(twoPackageRun))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "FlowSmart", Package: "smartndr", Procs: 2, Iterations: 88, NsPerOp: 13418076,
			BytesPerOp: 5686610, AllocsPerOp: 100644,
			Metrics: map[string]float64{"core.cleanup_ms/op": 12.5}},
		{Name: "MonteCarlo100", Package: "smartndr", Iterations: 50, NsPerOp: 19920965,
			BytesPerOp: 534979, AllocsPerOp: 174},
		{Name: "ServeFlowCold", Package: "smartndr/internal/serve", Procs: 2, Iterations: 70, NsPerOp: 16e6,
			BytesPerOp: 2048, AllocsPerOp: 31,
			Metrics: map[string]float64{"sta_visits/op": 3796, "MB/s": 1.5}},
	}
	if !reflect.DeepEqual(rep.Benchmarks, want) {
		t.Errorf("parsed\n%+v\nwant\n%+v", rep.Benchmarks, want)
	}
	if rep.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", rep.CPU)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	for _, in := range []string{"", "pkg: smartndr\nPASS\n", "BenchmarkX-2 notanumber 5 ns/op\n"} {
		if _, err := parse(strings.NewReader(in)); err == nil {
			t.Errorf("parse(%q) succeeded, want an error", in)
		}
	}
}
