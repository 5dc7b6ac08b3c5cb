package core

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestNamedTriples(t *testing.T) {
	cases := []struct {
		triple Triple
		want   string
	}{
		{EASY(), "EASY/RequestedTime/RequestedTime"},
		{EASYPlusPlus(), "EASY-SJBF/AVE2/Incremental"},
		{ClairvoyantEASY(), "EASY/Clairvoyant/RequestedTime"},
		{ClairvoyantSJBF(), "EASY-SJBF/Clairvoyant/RequestedTime"},
	}
	for _, c := range cases {
		if got := c.triple.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
	if !strings.Contains(PaperBest().Name(), "over=sq,under=lin,w=largearea") {
		t.Errorf("PaperBest loss wrong: %s", PaperBest().Name())
	}
	if !strings.Contains(PaperBest().Name(), "Incremental") {
		t.Errorf("PaperBest corrector wrong: %s", PaperBest().Name())
	}
}

// TestTripleByName pins the shared vocabulary: every spelling the
// command lines and specs accept, aliases and separator-insensitive
// forms included, names the same triple.
func TestTripleByName(t *testing.T) {
	cases := []struct {
		names []string
		want  Triple
	}{
		{[]string{"easy", "EASY"}, EASY()},
		{[]string{"easy++", "Easy++"}, EASYPlusPlus()},
		{[]string{"best", "paper-best", "PaperBest", "paper_best", "paper best"}, PaperBest()},
		{[]string{"clairvoyant", "clairvoyant-easy", "ClairvoyantEASY"}, ClairvoyantEASY()},
		{[]string{"clairvoyant-sjbf", "clairvoyant_sjbf"}, ClairvoyantSJBF()},
		{[]string{"conservative", "Conservative"}, ConservativeBF()},
	}
	for _, c := range cases {
		for _, name := range c.names {
			got, err := TripleByName(name)
			if err != nil {
				t.Errorf("TripleByName(%q): %v", name, err)
				continue
			}
			if got.Name() != c.want.Name() {
				t.Errorf("TripleByName(%q) = %s, want %s", name, got.Name(), c.want.Name())
			}
		}
	}
	for _, name := range []string{"eazy", "", "easy+", "campaign-grid"} {
		if _, err := TripleByName(name); err == nil || !strings.Contains(err.Error(), "unknown triple") {
			t.Errorf("TripleByName(%q) = %v, want an unknown-triple error", name, err)
		}
	}
}

func TestCampaignEnumeration(t *testing.T) {
	triples := CampaignTriples()
	// 2 orders × (requested + clairvoyant + 3 correctors × (AVE2 + 20 losses)) = 2×(2+63) = 130.
	if len(triples) != 130 {
		t.Fatalf("campaign has %d triples, want 130", len(triples))
	}
	seen := map[string]bool{}
	for _, tr := range triples {
		n := tr.Name()
		if seen[n] {
			t.Fatalf("duplicate triple %s", n)
		}
		seen[n] = true
	}
	// The paper's named configurations must all be inside the campaign.
	for _, named := range []Triple{EASY(), EASYPlusPlus(), PaperBest(), ClairvoyantEASY()} {
		if !seen[named.Name()] {
			t.Errorf("campaign missing %s", named.Name())
		}
	}
}

func TestTripleConfigFreshState(t *testing.T) {
	// Two configs from the same triple must not share predictor state.
	tr := EASYPlusPlus()
	a := tr.Config()
	b := tr.Config()
	if a.Predictor == b.Predictor {
		t.Fatal("Config() returned shared predictor state")
	}
}

func TestNoBackfillPolicy(t *testing.T) {
	tr := Triple{Predictor: PredClairvoyant, NoBackfill: true}
	if tr.Policy().Name() != "FCFS" {
		t.Fatalf("NoBackfill policy = %s", tr.Policy().Name())
	}
}

func TestPredictorKindString(t *testing.T) {
	for k, want := range map[PredictorKind]string{
		PredClairvoyant: "Clairvoyant", PredRequested: "RequestedTime",
		PredAve2: "AVE2", PredLearning: "ML",
	} {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestEndToEndOrderingOnSharedWorkload(t *testing.T) {
	// The paper's central claim in miniature: on a locality-heavy,
	// over-estimated workload, Clairvoyant <= PaperBest < EASY on AVEbsld.
	cfg, err := workload.Scaled("KTH-SP2", 2500)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr Triple) float64 {
		res, err := sim.Run(w, tr.Config())
		if err != nil {
			t.Fatal(err)
		}
		if errs := sim.ValidateResult(res); len(errs) != 0 {
			t.Fatalf("%s invalid: %v", tr.Name(), errs[0])
		}
		return metrics.AVEbsld(res)
	}
	easy := run(EASY())
	best := run(PaperBest())
	clair := run(ClairvoyantSJBF())
	t.Logf("EASY=%.1f PaperBest=%.1f ClairvoyantSJBF=%.1f", easy, best, clair)
	if best >= easy {
		t.Errorf("PaperBest (%.2f) should beat EASY (%.2f)", best, easy)
	}
	if clair >= easy {
		t.Errorf("Clairvoyant SJBF (%.2f) should beat EASY (%.2f)", clair, easy)
	}
}
