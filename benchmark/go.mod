module mrp/benchmark

go 1.24

require mrp v0.0.0

replace mrp => ../
