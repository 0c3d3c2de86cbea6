package admin

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// This file keeps the name lookups as they were before the compiled name
// index, as the oracle the index must agree with: a map of district forms
// rebuilt per gazetteer, and a state test that re-normalises every state
// name and alias on each call.

// refNormalizeName is NormalizeName as it was written over strings.Builder.
func refNormalizeName(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	var b strings.Builder
	lastSpace := false
	for _, r := range s {
		switch {
		case r == ' ' || r == '\t' || r == ',' || r == '.' || r == '_':
			if !lastSpace && b.Len() > 0 {
				b.WriteByte(' ')
				lastSpace = true
			}
		default:
			b.WriteRune(r)
			lastSpace = false
		}
	}
	return strings.TrimSpace(b.String())
}

func refNameForms(name string) []string {
	n := refNormalizeName(name)
	forms := []string{n}
	for _, suf := range koreanSuffixes {
		if strings.HasSuffix(n, suf) {
			bare := strings.TrimSuffix(n, suf)
			forms = append(forms, bare, bare+" "+suf[1:])
			break
		}
	}
	return forms
}

type refIndex struct {
	g      *Gazetteer
	byName map[string][]*District
}

func newRefIndex(g *Gazetteer) *refIndex {
	ri := &refIndex{g: g, byName: make(map[string][]*District)}
	for _, d := range g.districts {
		add := func(form string) {
			if form == "" {
				return
			}
			list := ri.byName[form]
			for _, have := range list {
				if have == d {
					return
				}
			}
			ri.byName[form] = append(list, d)
		}
		for _, f := range refNameForms(d.County) {
			add(f)
		}
		add(refNormalizeName(d.State + " " + d.County))
		for _, a := range d.Aliases {
			for _, f := range refNameForms(a) {
				add(f)
			}
		}
	}
	return ri
}

func (ri *refIndex) resolveName(name string) []*District {
	out := ri.byName[refNormalizeName(name)]
	if len(out) == 0 {
		return nil
	}
	return slices.Clone(out)
}

func (ri *refIndex) isState(name string) (string, bool) {
	n := refNormalizeName(name)
	for state := range ri.g.states {
		if refNormalizeName(state) == n {
			return state, true
		}
	}
	aliases := make(map[string][]string, len(koreaStates))
	for _, st := range koreaStates {
		aliases[st.name] = st.aliases
	}
	for state, as := range aliases {
		if _, ok := ri.g.states[state]; !ok {
			continue
		}
		for _, a := range as {
			if refNormalizeName(a) == n {
				return state, true
			}
		}
		for _, f := range refNameForms(state) {
			if f == n {
				return state, true
			}
		}
	}
	return "", false
}

func districtIDs(ds []*District) []string {
	ids := make([]string, len(ds))
	for i, d := range ds {
		ids[i] = d.ID()
	}
	return ids
}

// nameProbes lists every spelling the gazetteer files — each index form,
// each raw district, alias, state and state-alias name — plus decorated
// variants of each, which must normalise back onto the same entry.
func nameProbes(g *Gazetteer, ri *refIndex) []string {
	var raw []string
	for n := range g.Names() {
		raw = append(raw, n.Form)
	}
	for form := range ri.byName {
		raw = append(raw, form)
	}
	for _, d := range g.districts {
		raw = append(raw, d.County, d.State, d.State+" "+d.County)
		raw = append(raw, d.Aliases...)
	}
	for _, st := range koreaStates {
		raw = append(raw, st.name)
		raw = append(raw, st.aliases...)
	}
	slices.Sort(raw)
	var out []string
	for _, s := range slices.Compact(raw) {
		out = append(out, s, strings.ToUpper(s), "  "+s+". ", strings.ReplaceAll(s, " ", ",  "), s+" x", "x "+s)
	}
	return out
}

func TestNameIndexMatchesReference(t *testing.T) {
	world, err := NewWorldGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Gazetteer{mustKorea(t), world} {
		ri := newRefIndex(g)
		probes := nameProbes(g, ri)
		for _, p := range probes {
			if got, want := districtIDs(g.ResolveName(p)), districtIDs(ri.resolveName(p)); !slices.Equal(got, want) {
				t.Errorf("ResolveName(%q) = %v, reference %v", p, got, want)
			}
			gs, gok := g.IsState(p)
			ws, wok := ri.isState(p)
			if gs != ws || gok != wok {
				t.Errorf("IsState(%q) = %q,%v, reference %q,%v", p, gs, gok, ws, wok)
			}
		}
		if len(probes) < 6*g.Len() {
			t.Fatalf("only %d probes for %d districts", len(probes), g.Len())
		}
	}
}

func TestNormalizeNameMatchesReference(t *testing.T) {
	cases := []string{
		"", " ", "\t", ",", ".,_ ", "Seoul", "  Seoul ,, Korea. ", "a\u00a0,", ",\u00a0a",
		"a\u00a0,\u3000", "x\n\ty", "\u0130STANBUL", "K\u212a", "\xff\xfeSeoul", "ÄÖÜ straße",
		"양천구, 서울", "a , b", strings.Repeat("Yangcheon-gu ", 20),
	}
	for _, s := range cases {
		if got, want := NormalizeName(s), refNormalizeName(s); got != want {
			t.Errorf("NormalizeName(%q) = %q, reference %q", s, got, want)
		}
	}
	// Random strings over an alphabet heavy in the runes the rules treat
	// specially: delimiters, other unicode spaces, case pairs, bad bytes.
	alphabet := []string{" ", "\t", ",", ".", "_", "\n", "\u00a0", "\u3000", "\u0085", "A", "a", "\u0130", "\u212a", "-", "구", "\xff", "x"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var b strings.Builder
		for n := r.Intn(12); n >= 0; n-- {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		s := b.String()
		return NormalizeName(s) == refNormalizeName(s) && string(AppendNormalized([]byte("keep"), s)) == "keep"+refNormalizeName(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
