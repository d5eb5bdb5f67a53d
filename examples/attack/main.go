// Attack: mount Rowhammer patterns against several mitigation schemes and
// audit the outcome. The attacker hammers at maximum rate with cache
// flushing; the auditor tracks the most neighbour-activations any victim
// row accumulated without a refresh — the paper's §2.1 success criterion.
package main

import (
	"context"
	"fmt"
	"log"

	dream "repro"
)

func main() {
	const trh = 2000
	fmt.Printf("Rowhammer attack audit at T_RH=%d (attacker: max-rate, cache-flushing)\n\n", trh)
	fmt.Printf("%-18s %-14s %12s %12s %12s  %s\n",
		"scheme", "attack", "max victim", "max aggr", "mitigations", "breached?")

	schemes := []dream.SchemeID{
		dream.Unprotected,
		dream.PARADRFMsb,
		dream.DreamRPARA,
		dream.DreamRMINT,
		dream.DreamRMINTRL,
		dream.DreamC,
	}
	for _, scheme := range schemes {
		for _, kind := range []dream.AttackKind{dream.AttackDoubleSided, dream.AttackCircular} {
			res, err := dream.AttackContext(context.Background(), dream.AttackConfig{
				Kind:   kind,
				Scheme: scheme,
				TRH:    trh,
				Acts:   300_000,
				Seed:   7,
			})
			if err != nil {
				log.Fatal(err)
			}
			breached := "no"
			if res.Breached {
				breached = "YES (expected only for the unprotected baseline)"
			}
			fmt.Printf("%-18s %-14s %12d %12d %12d  %s\n",
				scheme, kind, res.MaxVictim, res.MaxAggressor, res.Mitigations, breached)
		}
	}
	fmt.Println("\nEvery protected scheme should keep 'max victim' below T_RH; the unprotected")
	fmt.Println("baseline demonstrates what the attacker achieves when nothing intervenes.")
}
