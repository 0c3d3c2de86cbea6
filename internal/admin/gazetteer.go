package admin

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"

	"stir/internal/geo"
)

// Gazetteer indexes a set of districts for point and name lookups. Build it
// once with NewGazetteer; lookups are then safe for concurrent use.
type Gazetteer struct {
	districts []*District
	byID      map[string]*District
	names     map[string]Name        // compiled name index, by normalised form
	states    map[string][]*District // state name -> its counties
	index     districtIndex
	bounds    geo.Rect
}

// Name is one entry of a gazetteer's compiled name index: what one
// normalised spelling refers to. A form can name districts and a state at
// once ("gwangju" is Gyeonggi-do's Gwangju-si and the metropolitan city
// Gwangju); callers that want one meaning prefer the districts, as the
// profile refiner does.
type Name struct {
	// Form is the normalised spelling the entry is filed under.
	Form string
	// Districts are the districts whose county name, alias or "state
	// county" compound has this form, in gazetteer order. The slice is a
	// read-only view shared with every other caller: it must not be
	// modified. Its capacity equals its length, so appending copies.
	Districts []*District
	// State is the canonical name of the state this form names, or "".
	State string
}

// ErrNotFound reports a failed gazetteer lookup.
var ErrNotFound = errors.New("admin: no district found")

// NewGazetteer indexes the given districts. District IDs must be unique, and
// no normalised state name, state alias or bare state form may name two
// different states.
func NewGazetteer(districts []*District) (*Gazetteer, error) {
	g := &Gazetteer{
		byID:   make(map[string]*District),
		names:  make(map[string]Name),
		states: make(map[string][]*District),
	}
	for _, d := range districts {
		if d.RadiusKm <= 0 {
			return nil, fmt.Errorf("admin: district %s has non-positive radius", d.ID())
		}
		if _, dup := g.byID[d.ID()]; dup {
			return nil, fmt.Errorf("admin: duplicate district id %s", d.ID())
		}
		g.byID[d.ID()] = d
		g.districts = append(g.districts, d)
		g.states[d.State] = append(g.states[d.State], d)
		if len(g.districts) == 1 {
			g.bounds = d.Bounds()
		} else {
			g.bounds = g.bounds.Union(d.Bounds())
		}
		g.indexNames(d)
	}
	if err := g.indexStates(); err != nil {
		return nil, err
	}
	g.index = newDistrictIndex(g.districts)
	for form, n := range g.names {
		n.Districts = slices.Clip(n.Districts)
		g.names[form] = n
	}
	return g, nil
}

func (g *Gazetteer) indexNames(d *District) {
	add := func(form string) {
		if form == "" {
			return
		}
		n := g.names[form]
		if slices.Contains(n.Districts, d) {
			return
		}
		n.Form = form
		n.Districts = append(n.Districts, d)
		g.names[form] = n
	}
	for _, f := range nameForms(d.County) {
		add(f)
	}
	// "State County" compound, the least ambiguous profile form.
	add(NormalizeName(d.State + " " + d.County))
	for _, a := range d.Aliases {
		for _, f := range nameForms(a) {
			add(f)
		}
	}
}

// indexStates files the states in precedence order: every canonical state
// name, then the Korean states' aliases, then their bare forms without the
// -do suffix ("gyeonggi"). Aliases and bare forms count only for Korean
// states the gazetteer holds; world "states" are regions that rarely appear
// alone. A form that would name a second state is an error, so no lookup
// depends on the order states were added in.
func (g *Gazetteer) indexStates() error {
	add := func(form, state string) error {
		if form == "" {
			return nil
		}
		n := g.names[form]
		switch n.State {
		case state:
			return nil
		case "":
			n.Form, n.State = form, state
			g.names[form] = n
			return nil
		default:
			return fmt.Errorf("admin: name %q refers to both states %q and %q", form, n.State, state)
		}
	}
	var korean []stateRow
	for _, st := range koreaStates {
		if _, ok := g.states[st.name]; ok {
			korean = append(korean, st)
		}
	}
	for _, state := range g.States() {
		if err := add(NormalizeName(state), state); err != nil {
			return err
		}
	}
	for _, st := range korean {
		for _, a := range st.aliases {
			if err := add(NormalizeName(a), st.name); err != nil {
				return err
			}
		}
	}
	for _, st := range korean {
		for _, f := range nameForms(st.name) {
			if err := add(f, st.name); err != nil {
				return err
			}
		}
	}
	return nil
}

// NewKoreaGazetteer returns the gazetteer for the paper's Korean dataset.
func NewKoreaGazetteer() (*Gazetteer, error) {
	return NewGazetteer(KoreaDistricts())
}

// NewWorldGazetteer returns the coarse worldwide gazetteer used by the Lady
// Gaga dataset; it includes the Korean districts too, since that stream also
// contains Korean users.
func NewWorldGazetteer() (*Gazetteer, error) {
	all := append(KoreaDistricts(), WorldDistricts()...)
	return NewGazetteer(all)
}

// Districts returns all indexed districts in insertion order.
func (g *Gazetteer) Districts() []*District { return g.districts }

// Len returns the number of indexed districts.
func (g *Gazetteer) Len() int { return len(g.districts) }

// Bounds returns the union of all district bounds.
func (g *Gazetteer) Bounds() geo.Rect { return g.bounds }

// States returns the sorted list of state names.
func (g *Gazetteer) States() []string {
	out := make([]string, 0, len(g.states))
	for s := range g.states {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Counties returns the districts belonging to state, or nil if unknown.
func (g *Gazetteer) Counties(state string) []*District { return g.states[state] }

// ByID returns the district with the given ID.
func (g *Gazetteer) ByID(id string) (*District, error) {
	d, ok := g.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %q", ErrNotFound, id)
	}
	return d, nil
}

// ResolvePoint returns the district containing p. When several approximate
// extents overlap, the district whose centre is closest wins; when none
// contains p, the nearest district within slackKm of its boundary, among
// the 8 whose bounding boxes lie nearest p, is returned. A negative slack
// disables the fallback. An exact tie goes to the earlier district in
// Districts(). Only a failed lookup allocates.
func (g *Gazetteer) ResolvePoint(p geo.Point, slackKm float64) (*District, error) {
	pos, err := g.ResolveIndex(p, slackKm)
	if err != nil {
		return nil, err
	}
	return g.districts[pos], nil
}

// ResolveIndex is ResolvePoint answering with the district's position in
// Districts(), for callers that key their own tables by it.
func (g *Gazetteer) ResolveIndex(p geo.Point, slackKm float64) (int, error) {
	pos, _, err := g.locate(p, slackKm)
	return pos, err
}

// Locate is ResolvePoint that also reports how p matched: contained is
// true when p lies inside the district's extent and false when the slack
// fallback found it. One call gives what ResolvePoint(p, -1) and then
// ResolvePoint(p, slackKm) would.
func (g *Gazetteer) Locate(p geo.Point, slackKm float64) (d *District, contained bool, err error) {
	pos, contained, err := g.locate(p, slackKm)
	if err != nil {
		return nil, false, err
	}
	return g.districts[pos], contained, nil
}

// locate is Locate answering with a position in Districts().
func (g *Gazetteer) locate(p geo.Point, slackKm float64) (pos int, contained bool, err error) {
	if !p.Valid() {
		return -1, false, fmt.Errorf("admin: invalid point %v", p)
	}
	if pos := g.index.containing(p); pos >= 0 {
		return pos, true, nil
	}
	if slackKm < 0 {
		return -1, false, fmt.Errorf("%w: point %v", ErrNotFound, p)
	}
	if pos := g.index.fallback(p, slackKm); pos >= 0 {
		return pos, false, nil
	}
	return -1, false, fmt.Errorf("%w: point %v (slack %.1f km)", ErrNotFound, p, slackKm)
}

// Lookup probes the compiled name index with an already normalised form, the
// output of NormalizeName or AppendNormalized. It returns the zero Name when
// the form names nothing, and it does not allocate.
func (g *Gazetteer) Lookup(form []byte) Name { return g.names[string(form)] }

// Names returns every entry of the compiled name index, in no fixed order.
func (g *Gazetteer) Names() iter.Seq[Name] {
	return func(yield func(Name) bool) {
		for _, n := range g.names {
			if !yield(n) {
				return
			}
		}
	}
}

// ResolveName returns all districts whose name or alias matches the
// normalised form of name, or nil. Multiple results mean the name is
// ambiguous (e.g. "Jung-gu" exists in several metropolitan cities). The
// slice is a read-only view into the name index: it must not be modified.
func (g *Gazetteer) ResolveName(name string) []*District {
	var buf [64]byte
	return g.Lookup(AppendNormalized(buf[:0], name)).Districts
}

// ResolveNameInState narrows ResolveName to districts of the given state.
func (g *Gazetteer) ResolveNameInState(name, state string) []*District {
	var out []*District
	for _, d := range g.ResolveName(name) {
		if d.State == state {
			out = append(out, d)
		}
	}
	return out
}

// IsState reports whether name refers to a first-level division (which the
// paper treats as insufficient when used alone) and returns its canonical
// state name. A name can be a state and a district at once; see Name.
func (g *Gazetteer) IsState(name string) (string, bool) {
	var buf [64]byte
	state := g.Lookup(AppendNormalized(buf[:0], name)).State
	return state, state != ""
}

// RandomWeights returns the districts and their population weights, for
// weighted sampling by the synthetic generator.
func (g *Gazetteer) RandomWeights() ([]*District, []float64) {
	ws := make([]float64, len(g.districts))
	for i, d := range g.districts {
		w := float64(d.Population)
		if w <= 0 {
			w = 1
		}
		ws[i] = w
	}
	return g.districts, ws
}

// NearestDistricts returns up to k districts ordered by centre distance
// from p (the point may be anywhere), chosen from the 2k whose bounding
// boxes lie nearest p. An exact tie goes to the earlier district in
// Districts().
func (g *Gazetteer) NearestDistricts(p geo.Point, k int) []*District {
	if k <= 0 {
		return nil
	}
	// Overfetch: box order is not centre order.
	boxes := g.index.nearest(make([]boxCandidate, 0, min(2*k, g.Len())), p, 2*k)
	type ranked struct {
		dist float64
		pos  int
	}
	cands := make([]ranked, len(boxes))
	for i, c := range boxes {
		cands[i] = ranked{g.districts[c.pos].Center.DistanceKm(p), c.pos}
	}
	slices.SortFunc(cands, func(a, b ranked) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.pos, b.pos))
	})
	out := make([]*District, min(k, len(cands)))
	for i := range out {
		out[i] = g.districts[cands[i].pos]
	}
	return out
}

// NeighborsOf returns up to k districts nearest to d, excluding d itself.
func (g *Gazetteer) NeighborsOf(d *District, k int) []*District {
	near := g.NearestDistricts(d.Center, k+1)
	out := make([]*District, 0, k)
	for _, n := range near {
		if n == d {
			continue
		}
		out = append(out, n)
		if len(out) == k {
			break
		}
	}
	return out
}
