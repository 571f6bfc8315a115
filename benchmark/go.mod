module gesturecep/benchmark

go 1.24

require gesturecep v0.0.0

replace gesturecep => ../
