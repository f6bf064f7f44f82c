package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

// The provenance forensics subcommands: `why` records a spiking SSSP run
// with the causal flight recorder and walks the proof tree behind a
// spike, and `replay` re-executes a recorded log and verifies it
// bit-identical.

// cmdWhy explains why a neuron fired: it runs the Section 3 SSSP
// construction with the flight recorder attached (or reads an existing
// provenance log with -in) and prints the causal proof tree of the
// queried spike — each level one synaptic delivery, bottoming out at the
// induced input. For SSSP relays the primary chain (first antecedent at
// each level, the FirstCause latch) is exactly the shortest path.
func cmdWhy(args []string) error {
	fs := flag.NewFlagSet("why", flag.ExitOnError)
	n := fs.Int("n", 64, "vertices")
	m := fs.Int("m", 256, "edges")
	u := fs.Int64("u", 8, "max edge length")
	seed := fs.Int64("seed", 1, "seed")
	src := fs.Int("src", 0, "source vertex")
	dst := fs.Int("dst", -1, "vertex to explain (also the default -neuron)")
	neuron := fs.Int("neuron", -1, "neuron to explain (defaults to -dst)")
	at := fs.Int64("t", -1, "explain the spike at exactly this time (-1: the neuron's first spike)")
	depth := fs.Int("depth", 0, "max causal depth in links (0: unlimited)")
	fan := fs.Int("fan", 0, "max antecedents expanded per spike (0: default 8)")
	save := fs.String("save", "", "write the recorded provenance log (JSONL) to this file")
	in := fs.String("in", "", "walk an existing provenance log instead of running ('-' = stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := telemetry.WalkOptions{MaxDepth: *depth, MaxFan: *fan}

	if *in != "" {
		target := *neuron
		if target < 0 {
			target = *dst
		}
		if target < 0 {
			return fmt.Errorf("why -in needs -neuron (or -dst) to know which spike to explain")
		}
		log, err := readProvenanceArg(*in)
		if err != nil {
			return err
		}
		root, err := log.CausalTree(int32(target), *at, opt)
		if err != nil {
			return err
		}
		fmt.Print(telemetry.RenderCauseTree(root))
		fmt.Printf("causal depth: %d links\n", root.Depth())
		return nil
	}

	g := graph.RandomGnm(*n, *m, graph.Uniform(*u), *seed, true)
	rec, err := harness.RecordSSSP(g, *src, -1, "spaabench", "why")
	if err != nil {
		return err
	}
	target := *neuron
	if target < 0 {
		target = *dst
	}
	if target < 0 {
		return fmt.Errorf("why needs -neuron or -dst to know which spike to explain")
	}
	root, err := rec.Log.CausalTree(int32(target), *at, opt)
	if err != nil {
		return err
	}
	fmt.Printf("graph n=%d m=%d U=%d seed=%d src=%d\n", g.N(), g.M(), g.MaxLen(), *seed, *src)
	fmt.Print(telemetry.RenderCauseTree(root))

	if path := rec.Path(target); path != nil && *at < 0 {
		hops := len(path) - 1
		parts := make([]string, len(path))
		for i, v := range path {
			parts[i] = fmt.Sprintf("%d", v)
		}
		fmt.Printf("shortest path: %s (dist=%d, %d hops)\n", strings.Join(parts, " -> "), rec.Dist[target], hops)
		chain := len(root.PrimaryChain()) - 1
		verdict := "matches the hop count"
		if chain != hops {
			verdict = fmt.Sprintf("MISMATCH: path has %d hops", hops)
		}
		fmt.Printf("primary causal chain: %d links (%s)\n", chain, verdict)
	}
	if *save != "" {
		if err := rec.Log.WriteFile(*save); err != nil {
			return err
		}
		fmt.Printf("provenance log: %s (%d events)\n", *save, rec.Log.Header.Events)
	}
	return nil
}

// cmdReplay re-executes a recorded provenance log and verifies the fresh
// event stream is bit-identical to the recording; the first divergent
// event, if any, is reported and the exit status is nonzero.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: spaabench replay <provenance.jsonl | ->")
	}
	log, err := readProvenanceArg(fs.Arg(0))
	if err != nil {
		return err
	}
	report, err := log.Replay()
	if err != nil {
		return err
	}
	if d := report.Divergence; d != nil {
		fmt.Printf("replayed %d events: DIVERGED\n", report.Events)
		return fmt.Errorf("%v", d)
	}
	fmt.Printf("replay ok: %d events bit-identical (spikes=%d deliveries=%d steps=%d)\n",
		report.Events, report.Stats.Spikes, report.Stats.Deliveries, report.Stats.Steps)
	return nil
}

func readProvenanceArg(name string) (*telemetry.ProvenanceLog, error) {
	if name == "-" {
		return telemetry.ReadProvenance(os.Stdin)
	}
	return telemetry.ReadProvenanceFile(name)
}
