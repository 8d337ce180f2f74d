package topo

import (
	"strings"
	"testing"
)

// topoSpecSeeds are the fuzz seeds with their verdicts: the compile key
// Key(0) of each accepted spelling, "" for a refused one. Topo keys are part
// of the view-sharing identity, so a changed key would split or merge views
// across a restart.
var topoSpecSeeds = []struct{ spec, key string }{
	{"", ""},
	{"density", "topo|density|wt=0"},
	{"Density", "topo|density|wt=0"},
	{" density ", "topo|density|wt=0"},
	{"triangles", "topo|triangles|wt=0"},
	{"triangle", "topo|triangles|wt=0"},
	{"tri", "topo|triangles|wt=0"},
	{"wedges", "topo|wedges|wt=0"},
	{"wedge", "topo|wedges|wt=0"},
	{"ego-betweenness", "topo|ego-betweenness|wt=0"},
	{"egobetweenness", "topo|ego-betweenness|wt=0"},
	{"ego_betweenness", "topo|ego-betweenness|wt=0"},
	{"betweenness", "topo|ego-betweenness|wt=0"},
	{"EBC", "topo|ego-betweenness|wt=0"},
	{"density(3)", ""},
	{"sum", ""},
	{"topk(5)", ""},
	{"density(", ""},
	{"density()", ""},
	{"wedges(x)", ""},
	{"tri(0)", "topo|triangles|wt=0"},
}

// TestParseTopoSpecSeeds pins each fuzz seed's accept/refuse verdict and
// compile key.
func TestParseTopoSpecSeeds(t *testing.T) {
	for _, sd := range topoSpecSeeds {
		spec, err := Parse(sd.spec)
		switch {
		case sd.key == "" && err == nil:
			t.Errorf("Parse(%q) = %+v, want refused", sd.spec, spec)
		case sd.key != "" && err != nil:
			t.Errorf("Parse(%q): %v, want key %q", sd.spec, err, sd.key)
		case sd.key != "" && spec.Key(0) != sd.key:
			t.Errorf("Parse(%q).Key(0) = %q, want %q", sd.spec, spec.Key(0), sd.key)
		}
	}
}

// FuzzParseTopoSpec pins the topology-aggregate spec grammar as a closed
// loop (mirroring FuzzParseEventKind for event kinds): every accepted
// spelling canonicalizes through String to a form that parses back to the
// identical Spec, and equal-semantics spellings produce equal compile keys
// — the property Session.Register's view sharing and the router's spec
// re-encoding both depend on.
func FuzzParseTopoSpec(f *testing.F) {
	for _, sd := range topoSpecSeeds {
		f.Add(sd.spec)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		canon := spec.String()
		back, err := Parse(canon)
		if err != nil || back != spec {
			t.Fatalf("String/Parse not closed: %q -> %+v -> %q -> (%+v, %v)", s, spec, canon, back, err)
		}
		if spec.Key(0) != back.Key(0) || spec.Key(100) != back.Key(100) {
			t.Fatalf("compile key unstable across round-trip for %q", s)
		}
		if !strings.HasPrefix(spec.Key(0), "topo|") {
			t.Fatalf("key %q lost the topo| namespace prefix", spec.Key(0))
		}
		// Accepted names must be registered (Parse may not invent names):
		// New must succeed, and the canonical name must appear in Names().
		if _, err := New(spec); err != nil {
			t.Fatalf("Parse accepted %q but New rejects: %v", s, err)
		}
		found := false
		for _, n := range Names() {
			if n == spec.Name {
				found = true
			}
		}
		if !found {
			t.Fatalf("Parse accepted %q as %q, which Names() does not list", s, spec.Name)
		}
	})
}
