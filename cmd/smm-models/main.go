// Command smm-models lists the built-in networks with their footprints, or
// prints the per-layer table of one model — the quickest way to see what
// the planner will be working with.
//
// Usage:
//
//	smm-models                 # inventory of all built-ins
//	smm-models -model VGG16    # per-layer table of one model
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"scratchmem/internal/cli"
	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/report"
)

func main() {
	// Nothing here outlives a keystroke, so no signal context: the shared
	// exit protocol is all this tool needs.
	cli.Exit("smm-models", run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smm-models", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		modelFlag = fs.String("model", "", "show the per-layer table of one model (empty = inventory)")
		export    = fs.String("export", "", "write the selected model as JSON or SCALE-Sim topology CSV (by extension)")
		graphFlag = fs.Bool("graph", false, "emit the model's tensor graph as Graphviz dot (accepts a builtin name or a topology CSV/JSON path in -model)")
		logFlags  = cli.RegisterLogFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		return err
	}

	if *graphFlag {
		if *modelFlag == "" {
			return fmt.Errorf("-graph needs -model (a builtin name or a topology file)")
		}
		g, err := loadGraphArg(*modelFlag)
		if err != nil {
			return err
		}
		logger.Debug("graph loaded", "model", g.Name, "nodes", len(g.Nodes), "chain", g.IsChain())
		return writeDot(out, g)
	}

	if *modelFlag == "" {
		t := report.NewTable("Built-in models",
			"Network", "Layers", "Types", "Params (M)", "MACs (G)", "Min traffic (MB)")
		names := model.AllBuiltinNames()
		for _, name := range names {
			n, err := model.Builtin(name)
			if err != nil {
				return err
			}
			types := ""
			for i, k := range n.Types() {
				if i > 0 {
					types += ","
				}
				types += k.String()
			}
			t.Row(n.Name, len(n.Layers), types,
				float64(n.Params())/1e6, float64(n.MACs())/1e9,
				float64(n.MinTransfers(false))/(1<<20))
		}
		return t.Render(out)
	}

	n, err := model.Builtin(*modelFlag)
	if err != nil {
		return err
	}
	logger.Debug("model loaded", "model", n.Name, "layers", len(n.Layers))
	t := report.NewTable(fmt.Sprintf("%s: %d layers", n.Name, len(n.Layers)),
		"L", "name", "type", "ifmap", "filter", "out", "params (k)", "MACs (M)")
	for i := range n.Layers {
		l := &n.Layers[i]
		t.Row(i+1, l.Name, l.Kind.String(),
			fmt.Sprintf("%dx%dx%d", l.IH, l.IW, l.CI),
			fmt.Sprintf("%dx%dx%d", l.FH, l.FW, l.F),
			fmt.Sprintf("%dx%dx%d", l.OH(), l.OW(), l.CO()),
			float64(l.FilterElems())/1e3,
			float64(l.MACs())/1e6)
	}
	if err := t.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "\ntotal: %.2fM params, %.2fG MACs, ifmap max %s\n",
		float64(n.Params())/1e6, float64(n.MACs())/1e9, biggestIfmap(n))
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			return err
		}
		defer f.Close()
		if len(*export) > 4 && (*export)[len(*export)-4:] == ".csv" {
			err = n.WriteTopologyCSV(f)
		} else {
			err = n.WriteJSON(f)
		}
		if err != nil {
			return err
		}
		logger.Debug("model exported", "model", n.Name, "path", *export)
		fmt.Fprintf(out, "wrote %s\n", *export)
	}
	return nil
}

func biggestIfmap(n *model.Network) string {
	var best *layer.Layer
	var bestElems int64
	for i := range n.Layers {
		if e := n.Layers[i].IfmapElems(false); e > bestElems {
			best, bestElems = &n.Layers[i], e
		}
	}
	return fmt.Sprintf("%s (%.1f kB)", best.Name, float64(bestElems)/1024)
}
