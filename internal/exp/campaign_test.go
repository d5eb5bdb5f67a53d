package exp

import (
	"strings"
	"testing"
)

// TestCampaignCellValidateBounds checks the size limits at and just past
// their edges: a /v1/campaign cell must not ask for an unbounded trace.
func TestCampaignCellValidateBounds(t *testing.T) {
	ok := CampaignCell{Workload: "mcf", Scheme: "base", TRH: 2000, Cores: 2, Accesses: 1000, Seed: 1}
	cases := []struct {
		name string
		edit func(*CampaignCell)
		want string // substring of the error; "" = valid
	}{
		{"small cell", func(*CampaignCell) {}, ""},
		{"max cores", func(c *CampaignCell) { c.Cores = MaxCores }, ""},
		{"cores past max", func(c *CampaignCell) { c.Cores = MaxCores + 1 }, "cores"},
		{"zero cores", func(c *CampaignCell) { c.Cores = 0 }, "cores"},
		{"max accesses", func(c *CampaignCell) { c.Accesses = MaxAccesses }, ""},
		{"accesses past max", func(c *CampaignCell) { c.Accesses = MaxAccesses + 1 }, "accesses"},
		{"zero accesses", func(c *CampaignCell) { c.Accesses = 0 }, "accesses"},
	}
	for _, tc := range cases {
		c := ok
		tc.edit(&c)
		err := c.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
