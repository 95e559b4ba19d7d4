// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three workloads — lookup, control or sim — for a fixed number
// of seconds, checks the program's outputs, and prints one JSON result
// line. With -trace 1 it runs the workload twice, untraced and traced,
// and prints per-layer metrics, the tracing overhead, and the self time
// of each layer computed from the recorded spans.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it; see perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"time"
)

// workloadFunc runs one workload for d and returns its metrics. A
// traced run passes a non-nil tracer.
type workloadFunc func(seed uint64, d time.Duration, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"lookup":  runLookup,
	"control": runControl,
	"sim":     runSim,
}

func main() {
	name := flag.String("workload", "", "workload to run: lookup, control or sim")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs untraced then traced and prints per-layer metrics")
	flag.StringVar(&workDir, "out", workDir, "directory for span files and the control workload's journals")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload lookup|control|sim -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	res, env, err := execute(*name, run, *seed, time.Duration(*seconds)*time.Second, *trace == 1, workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs the workload once untraced, or — for a traced run —
// untraced then traced over half the time each, and assembles the
// printed result.
func execute(name string, run workloadFunc, seed uint64, d time.Duration, traced bool, outDir string) (*result, environment, error) {
	steal := readSteal()
	if !traced {
		o, err := run(seed, d, nil)
		if err != nil {
			return nil, environment{}, err
		}
		env := newEnvironment(steal)
		return o.endToEnd(), env, nil
	}
	plain, err := run(seed, d/2, nil)
	if err != nil {
		return nil, environment{}, err
	}
	tr := newTracer()
	o, err := run(seed, d/2, tr)
	if err != nil {
		return nil, environment{}, err
	}
	env := newEnvironment(steal)
	o.failures = append(o.failures, plain.failures...)
	for _, c := range o.compareUntraced(plain) {
		o.check(c.ok, "%s", c.what)
	}
	maps.Copy(o.layers, tr.selfTimes())
	for _, m := range endToEndMetrics {
		o.layers["overhead."+m.name] = o.e2e[m.name] - plain.e2e[m.name]
	}
	if err := writeTrace(outDir, name, seed, env, tr, o); err != nil {
		return nil, environment{}, err
	}
	res := o.perLayer()
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	return res, env, nil
}
