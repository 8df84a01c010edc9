// DSE-sweep: a design-space exploration across all six paper models, the
// five paper buffer sizes and both objectives, fanned out over a worker
// pool. Prints, per model, how the heterogeneous scheme's traffic and
// latency move with the buffer size and where the best baseline lands —
// the data behind the paper's Figures 5 and 8 in one grid.
//
// Run with: go run ./examples/dse-sweep
package main

import (
	"context"
	"fmt"
	"log"

	scratchmem "scratchmem"
	"scratchmem/internal/parallel"
)

type cell struct {
	model       string
	sizeKB      int
	hetAccessMB float64
	hetLatencyM float64
	baselineMB  float64
}

func main() {
	models := []string{"EfficientNetB0", "GoogLeNet", "MnasNet", "MobileNet", "MobileNetV2", "ResNet18"}
	sizes := []int{64, 128, 256, 512, 1024}

	cells, err := parallel.MapCtx(context.Background(), len(models)*len(sizes), 0, func(_ context.Context, i int) (cell, error) {
		m, kb := models[i/len(sizes)], sizes[i%len(sizes)]
		net, err := scratchmem.BuiltinModel(m)
		if err != nil {
			return cell{}, err
		}
		acc, err := scratchmem.PlanModel(net, scratchmem.PlanOptions{GLBKiloBytes: kb})
		if err != nil {
			return cell{}, err
		}
		lat, err := scratchmem.PlanModel(net, scratchmem.PlanOptions{GLBKiloBytes: kb, Objective: scratchmem.MinLatency})
		if err != nil {
			return cell{}, err
		}
		best := int64(0)
		for _, bc := range scratchmem.BaselineSplits(kb, 8) {
			r, err := scratchmem.SimulateBaseline(net, bc)
			if err != nil {
				return cell{}, err
			}
			if b := r.DRAMBytes(); best == 0 || b < best {
				best = b
			}
		}
		return cell{
			model:       m,
			sizeKB:      kb,
			hetAccessMB: float64(acc.AccessBytes()) / (1 << 20),
			hetLatencyM: float64(lat.LatencyCycles()) / 1e6,
			baselineMB:  float64(best) / (1 << 20),
		}, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-15s %6s  %12s %12s %12s %10s\n",
		"model", "GLB", "baseline MB", "Het MB", "reduction", "Het_l Mcyc")
	for _, c := range cells {
		fmt.Printf("%-15s %4dkB  %12.2f %12.2f %11.0f%% %10.2f\n",
			c.model, c.sizeKB, c.baselineMB, c.hetAccessMB,
			100*(1-c.hetAccessMB/c.baselineMB), c.hetLatencyM)
	}
}
