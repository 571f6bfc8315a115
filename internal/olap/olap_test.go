package olap

import (
	"strings"
	"testing"
)

func sampleCube(t *testing.T) *Cube {
	t.Helper()
	c, err := SampleSalesCube()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDimensionValidate(t *testing.T) {
	bad := []Dimension{
		{},
		{Name: "d"},
		{Name: "d", Levels: []string{""}},
		{Name: "d", Levels: []string{"a", "a"}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad dimension %d accepted", i)
		}
	}
}

func TestNewCubeValidation(t *testing.T) {
	if _, err := NewCube(Dimension{Name: "only", Levels: []string{"l"}}); err == nil {
		t.Error("single-dimension cube accepted")
	}
	d := Dimension{Name: "d", Levels: []string{"l"}}
	if _, err := NewCube(d, d); err == nil {
		t.Error("duplicate dimension accepted")
	}
}

func TestAddFactValidation(t *testing.T) {
	c, err := NewCube(
		Dimension{Name: "a", Levels: []string{"x"}},
		Dimension{Name: "b", Levels: []string{"y"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddFact(map[string]string{"x": "1"}, 5); err == nil {
		t.Error("fact missing level accepted")
	}
	if err := c.AddFact(map[string]string{"x": "1", "y": "2"}, 5); err != nil {
		t.Error(err)
	}
	if c.Facts() != 1 {
		t.Errorf("facts = %d", c.Facts())
	}
}

func TestSampleCubeShape(t *testing.T) {
	c := sampleCube(t)
	if c.Facts() == 0 {
		t.Fatal("no facts")
	}
	dims := c.Dimensions()
	if len(dims) != 3 || dims[0].Name != "time" {
		t.Errorf("dimensions = %v", dims)
	}
}

func TestAggregateCoarse(t *testing.T) {
	v := NewView(sampleCube(t))
	tab, err := v.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if tab.RowLevel != "year" || tab.ColLevel != "country" {
		t.Errorf("levels = %s × %s", tab.RowLevel, tab.ColLevel)
	}
	if len(tab.Rows) != 2 || len(tab.Cols) != 2 {
		t.Errorf("shape = %d × %d", len(tab.Rows), len(tab.Cols))
	}
	// Total over all cells equals total over all facts.
	var cells float64
	for _, row := range tab.Cells {
		for _, v := range row {
			cells += v
		}
	}
	if cells <= 0 {
		t.Error("empty aggregate")
	}
	if !strings.Contains(tab.String(), "year\\country") {
		t.Errorf("render: %s", tab.String())
	}
}

func TestDrillDownRollUp(t *testing.T) {
	v := NewView(sampleCube(t))
	if err := v.DrillDown(); err != nil {
		t.Fatal(err)
	}
	tab, _ := v.Aggregate()
	if tab.RowLevel != "quarter" {
		t.Errorf("after drill-down: %s", tab.RowLevel)
	}
	if err := v.DrillDown(); err != nil {
		t.Fatal(err)
	}
	if err := v.DrillDown(); err == nil {
		t.Error("drill below finest level accepted")
	}
	if err := v.RollUp(); err != nil {
		t.Fatal(err)
	}
	if err := v.RollUp(); err != nil {
		t.Fatal(err)
	}
	if err := v.RollUp(); err == nil {
		t.Error("roll above coarsest level accepted")
	}
	if v.Depth("time") != 1 {
		t.Errorf("depth = %d", v.Depth("time"))
	}
}

func TestPivotAndRotate(t *testing.T) {
	v := NewView(sampleCube(t))
	v.Pivot()
	if v.RowDim() != "geo" || v.ColDim() != "time" {
		t.Errorf("after pivot: %s × %s", v.RowDim(), v.ColDim())
	}
	v.RotateDims()
	if v.ColDim() != "product" {
		t.Errorf("after rotate: col = %s", v.ColDim())
	}
	// Rotation never selects the row dimension.
	for i := 0; i < 5; i++ {
		v.RotateDims()
		if v.ColDim() == v.RowDim() {
			t.Fatal("rotate selected the row dimension")
		}
	}
}

func TestSliceUnslice(t *testing.T) {
	v := NewView(sampleCube(t))
	base, _ := v.Aggregate()
	if err := v.Slice("country", "DE"); err != nil {
		t.Fatal(err)
	}
	sliced, _ := v.Aggregate()
	if len(sliced.Cols) != 1 || sliced.Cols[0] != "DE" {
		t.Errorf("sliced cols = %v", sliced.Cols)
	}
	if err := v.Slice("nosuch", "x"); err == nil {
		t.Error("unknown level accepted")
	}
	if !v.Unslice("country") {
		t.Error("unslice missed")
	}
	if v.Unslice("country") {
		t.Error("double unslice reported true")
	}
	back, _ := v.Aggregate()
	if len(back.Cols) != len(base.Cols) {
		t.Error("unslice did not restore")
	}
	if len(v.Filters()) != 0 {
		t.Error("filters remain")
	}
}

func TestReset(t *testing.T) {
	v := NewView(sampleCube(t))
	_ = v.DrillDown()
	v.Pivot()
	_ = v.Slice("country", "DE")
	v.Reset()
	if v.RowDim() != "time" || v.Depth("time") != 1 || len(v.Filters()) != 0 {
		t.Error("reset incomplete")
	}
}

// TestSampleCubeDeterministic: the sample cube's facts do not depend on map
// iteration order, so twenty builds aggregate to the same tables, at the
// coarsest levels and drilled down to cities by months.
func TestSampleCubeDeterministic(t *testing.T) {
	tables := func() string {
		v := NewView(sampleCube(t))
		var b strings.Builder
		aggregate := func() {
			tab, err := v.Aggregate()
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(tab.String())
		}
		aggregate() // year × country
		if err := v.DrillDown(); err != nil {
			t.Fatal(err)
		}
		if err := v.DrillDown(); err != nil {
			t.Fatal(err)
		}
		v.Pivot()
		if err := v.DrillDown(); err != nil {
			t.Fatal(err)
		}
		aggregate() // city × month
		return b.String()
	}
	want := tables()
	for i := 1; i < 20; i++ {
		if got := tables(); got != want {
			t.Fatalf("build %d aggregates to\n%s\nbuild 0 to\n%s", i, got, want)
		}
	}
}
