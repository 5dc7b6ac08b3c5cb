package report

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/campaign"
)

// FederatedTable renders a federated campaign's results: one block per
// workload, one sub-block per federation (routing policy + cluster topology),
// triples as rows. Each row carries the global AVEbsld, mean wait and
// utilization followed by one AVEbsld/jobs column per cluster, so a
// routing policy's load split is visible next to the score it buys.
func FederatedTable(results []campaign.RunResult) string {
	var b strings.Builder
	b.WriteString("Federated campaign: global and per-cluster metrics per triple\n")

	type fedKey struct{ workload, routing, topology string }
	groups := map[fedKey][]campaign.RunResult{}
	var order []fedKey
	for _, r := range results {
		k := fedKey{r.Workload, r.Routing, r.Topology}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}

	lastWorkload := ""
	for _, k := range order {
		rs := groups[k]
		if k.workload != lastWorkload {
			fmt.Fprintf(&b, "\n%s:\n", k.workload)
			lastWorkload = k.workload
		}
		fmt.Fprintf(&b, "  routing=%s topology=%s\n", k.routing, k.topology)
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  Triple\tAVEbsld\twait[s]\tutil")
		for _, c := range rs[0].Clusters {
			fmt.Fprintf(tw, "\t%s", c.Name)
		}
		fmt.Fprintf(tw, "\t\n")
		for _, r := range rs {
			fmt.Fprintf(tw, "  %s\t%.1f\t%.0f\t%.3f", r.Triple.Name(), r.AVEbsld, r.MeanWait, r.Utilization)
			for _, c := range r.Clusters {
				fmt.Fprintf(tw, "\t%.1f (%d)", c.AVEbsld, c.Finished)
			}
			fmt.Fprintf(tw, "\t\n")
		}
		tw.Flush()
	}
	return b.String()
}
