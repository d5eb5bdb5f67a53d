// Quickstart: simulate one workload under DREAM-R (MINT) and compare it to
// the unprotected baseline and to the naive coupled DRFMsb implementation —
// the paper's headline result (Figure 9) in one program.
package main

import (
	"context"
	"fmt"
	"log"

	dream "repro"
)

func main() {
	const (
		workload = "mcf"
		trh      = 2000
	)
	fmt.Printf("DREAM quickstart: %s at T_RH=%d, 8 cores\n\n", workload, trh)

	for _, scheme := range []dream.SchemeID{dream.MINTDRFMsb, dream.DreamRMINT} {
		base, res, slowdown, err := dream.CompareContext(context.Background(), dream.Config{
			Workload: workload,
			Scheme:   scheme,
			TRH:      trh,
			Seed:     42,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s: IPC %.3f -> %.3f  slowdown %.2f%%\n",
			scheme, base.IPCSum(), res.IPCSum(), 100*slowdown)
		fmt.Printf("              DRFM commands: %d, rows mitigated per DRFM (RLP): %.2f\n",
			res.DRFMsbs+res.DRFMabs, res.RLP)
		fmt.Printf("              tracker SRAM: %.1f KB per sub-channel\n\n",
			float64(res.StorageBits)/8/1024)
	}

	fmt.Println("DREAM-R delays each DRFM until a second selection needs the DAR, so one")
	fmt.Println("command mitigates rows in up to 8 banks at once (higher RLP), cutting the")
	fmt.Println("DRFM rate and recovering the slowdown the naive coupled design pays.")
}
