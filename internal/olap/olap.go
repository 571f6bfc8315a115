// Package olap is a miniature in-memory OLAP cube with the navigation
// operations the paper's Data³ demo ([3], ICDE 2012) binds to gestures:
// drill-down, roll-up, pivot and slice over dimension hierarchies. It
// exists so the examples can demonstrate the full loop "gesture detected →
// navigation operator executed" against a real data structure.
package olap

import (
	"fmt"
	"sort"
	"strings"
)

// Dimension is a named hierarchy of attribute levels, coarse to fine, e.g.
// time: year → quarter → month.
type Dimension struct {
	Name   string
	Levels []string
}

// Validate reports structural problems.
func (d Dimension) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("olap: dimension without name")
	}
	if len(d.Levels) == 0 {
		return fmt.Errorf("olap: dimension %q has no levels", d.Name)
	}
	seen := map[string]bool{}
	for _, l := range d.Levels {
		if l == "" {
			return fmt.Errorf("olap: dimension %q has an empty level", d.Name)
		}
		if seen[l] {
			return fmt.Errorf("olap: dimension %q repeats level %q", d.Name, l)
		}
		seen[l] = true
	}
	return nil
}

// Fact is one base record: a value for every hierarchy level plus the
// measure.
type Fact struct {
	Attrs   map[string]string
	Measure float64
}

// Cube holds dimensions and base facts.
type Cube struct {
	dims  []Dimension
	facts []Fact
}

// NewCube validates the dimensions and returns an empty cube.
func NewCube(dims ...Dimension) (*Cube, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("olap: a cube needs at least 2 dimensions, got %d", len(dims))
	}
	names := map[string]bool{}
	for _, d := range dims {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if names[d.Name] {
			return nil, fmt.Errorf("olap: duplicate dimension %q", d.Name)
		}
		names[d.Name] = true
	}
	return &Cube{dims: append([]Dimension(nil), dims...)}, nil
}

// AddFact inserts a base record; it must provide a value for every level of
// every dimension.
func (c *Cube) AddFact(attrs map[string]string, measure float64) error {
	for _, d := range c.dims {
		for _, l := range d.Levels {
			if attrs[l] == "" {
				return fmt.Errorf("olap: fact missing attribute %q", l)
			}
		}
	}
	cp := make(map[string]string, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	c.facts = append(c.facts, Fact{Attrs: cp, Measure: measure})
	return nil
}

// Dimensions returns the cube's dimensions.
func (c *Cube) Dimensions() []Dimension { return append([]Dimension(nil), c.dims...) }

// Facts returns the number of base records.
func (c *Cube) Facts() int { return len(c.facts) }

// View is a navigation state over a cube: a current hierarchy depth per
// dimension, slice filters, and the two dimensions spanning the displayed
// crosstab (rows × columns). All of the paper's gesture-bound operators
// mutate a View; the cube itself is immutable during navigation.
type View struct {
	cube *Cube
	// depth[dim] = number of hierarchy levels expanded (1 = coarsest).
	depth map[string]int
	// filters pins level attributes to values (slice).
	filters map[string]string
	rowDim  string
	colDim  string
}

// NewView starts navigation at the coarsest level of the first two
// dimensions.
func NewView(c *Cube) *View {
	v := &View{
		cube:    c,
		depth:   make(map[string]int),
		filters: make(map[string]string),
		rowDim:  c.dims[0].Name,
		colDim:  c.dims[1].Name,
	}
	for _, d := range c.dims {
		v.depth[d.Name] = 1
	}
	return v
}

// Reset returns to the initial navigation state.
func (v *View) Reset() {
	for _, d := range v.cube.dims {
		v.depth[d.Name] = 1
	}
	v.filters = make(map[string]string)
	v.rowDim = v.cube.dims[0].Name
	v.colDim = v.cube.dims[1].Name
}

// RowDim and ColDim return the crosstab dimensions.
func (v *View) RowDim() string { return v.rowDim }

// ColDim returns the column dimension.
func (v *View) ColDim() string { return v.colDim }

// Depth returns the expanded level count of a dimension.
func (v *View) Depth(dim string) int { return v.depth[dim] }

func (v *View) dim(name string) (Dimension, error) {
	for _, d := range v.cube.dims {
		if d.Name == name {
			return d, nil
		}
	}
	return Dimension{}, fmt.Errorf("olap: unknown dimension %q", name)
}

// DrillDown expands the row dimension one hierarchy level deeper.
func (v *View) DrillDown() error {
	d, err := v.dim(v.rowDim)
	if err != nil {
		return err
	}
	if v.depth[d.Name] >= len(d.Levels) {
		return fmt.Errorf("olap: dimension %q already at finest level %q", d.Name, d.Levels[len(d.Levels)-1])
	}
	v.depth[d.Name]++
	return nil
}

// RollUp collapses the row dimension one hierarchy level.
func (v *View) RollUp() error {
	if v.depth[v.rowDim] <= 1 {
		return fmt.Errorf("olap: dimension %q already at coarsest level", v.rowDim)
	}
	v.depth[v.rowDim]--
	return nil
}

// Pivot swaps the row and column dimensions.
func (v *View) Pivot() { v.rowDim, v.colDim = v.colDim, v.rowDim }

// RotateDims replaces the column dimension with the next unused dimension
// of the cube, cycling through all dimensions.
func (v *View) RotateDims() {
	names := make([]string, len(v.cube.dims))
	for i, d := range v.cube.dims {
		names[i] = d.Name
	}
	idx := 0
	for i, n := range names {
		if n == v.colDim {
			idx = i
			break
		}
	}
	for step := 1; step <= len(names); step++ {
		cand := names[(idx+step)%len(names)]
		if cand != v.rowDim {
			v.colDim = cand
			return
		}
	}
}

// Slice pins a level attribute to a value, filtering all aggregates.
func (v *View) Slice(level, value string) error {
	found := false
	for _, d := range v.cube.dims {
		for _, l := range d.Levels {
			if l == level {
				found = true
			}
		}
	}
	if !found {
		return fmt.Errorf("olap: unknown level %q", level)
	}
	v.filters[level] = value
	return nil
}

// Unslice removes a filter; it reports whether one existed.
func (v *View) Unslice(level string) bool {
	_, ok := v.filters[level]
	delete(v.filters, level)
	return ok
}

// Filters returns the active slice filters.
func (v *View) Filters() map[string]string {
	out := make(map[string]string, len(v.filters))
	for k, val := range v.filters {
		out[k] = val
	}
	return out
}

// Table is an aggregated crosstab.
type Table struct {
	RowLevel, ColLevel string
	Rows, Cols         []string
	// Cells[r][c] is the summed measure.
	Cells [][]float64
}

// Aggregate computes the crosstab for the current navigation state: rows
// grouped by the row dimension's current level, columns by the column
// dimension's current level, measures summed over matching facts.
func (v *View) Aggregate() (Table, error) {
	rd, err := v.dim(v.rowDim)
	if err != nil {
		return Table{}, err
	}
	cd, err := v.dim(v.colDim)
	if err != nil {
		return Table{}, err
	}
	rowLevel := rd.Levels[v.depth[rd.Name]-1]
	colLevel := cd.Levels[v.depth[cd.Name]-1]

	sums := map[[2]string]float64{}
	rowSet, colSet := map[string]bool{}, map[string]bool{}
	for _, f := range v.cube.facts {
		match := true
		for level, want := range v.filters {
			if f.Attrs[level] != want {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		r, c := f.Attrs[rowLevel], f.Attrs[colLevel]
		sums[[2]string{r, c}] += f.Measure
		rowSet[r] = true
		colSet[c] = true
	}

	t := Table{RowLevel: rowLevel, ColLevel: colLevel}
	for r := range rowSet {
		t.Rows = append(t.Rows, r)
	}
	for c := range colSet {
		t.Cols = append(t.Cols, c)
	}
	sort.Strings(t.Rows)
	sort.Strings(t.Cols)
	t.Cells = make([][]float64, len(t.Rows))
	for i, r := range t.Rows {
		t.Cells[i] = make([]float64, len(t.Cols))
		for j, c := range t.Cols {
			t.Cells[i][j] = sums[[2]string{r, c}]
		}
	}
	return t, nil
}

// String renders the table as fixed-width text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", t.RowLevel+"\\"+t.ColLevel)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", r)
		for j := range t.Cols {
			fmt.Fprintf(&b, "%12.0f", t.Cells[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SampleSalesCube builds a small 3-dimensional sales cube (time, geography,
// product) with deterministic synthetic facts — the demo dataset for the
// OLAP navigation example.
func SampleSalesCube() (*Cube, error) {
	cube, err := NewCube(
		Dimension{Name: "time", Levels: []string{"year", "quarter", "month"}},
		Dimension{Name: "geo", Levels: []string{"country", "city"}},
		Dimension{Name: "product", Levels: []string{"category", "item"}},
	)
	if err != nil {
		return nil, err
	}
	// Slices, not maps: the running val makes each fact's measure depend on
	// the order the facts are added in.
	type group struct {
		name    string
		members []string
	}
	years := []string{"2012", "2013"}
	months := []group{{"Q1", []string{"Jan", "Feb", "Mar"}}, {"Q2", []string{"Apr", "May", "Jun"}}}
	cities := []group{{"DE", []string{"Berlin", "Ilmenau"}}, {"IT", []string{"Genoa", "Rome"}}}
	items := []group{{"camera", []string{"kinect", "webcam"}}, {"display", []string{"touch", "wall"}}}

	val := 0.0
	for _, y := range years {
		for _, q := range months {
			for _, m := range q.members {
				for _, country := range cities {
					for _, city := range country.members {
						for _, cat := range items {
							for _, item := range cat.members {
								val += 7
								err := cube.AddFact(map[string]string{
									"year": y, "quarter": y + q.name, "month": y + m,
									"country": country.name, "city": city,
									"category": cat.name, "item": item,
								}, 100+float64(int(val)%97))
								if err != nil {
									return nil, err
								}
							}
						}
					}
				}
			}
		}
	}
	return cube, nil
}
