module anyk/benchmark

go 1.24

require anyk v0.0.0

replace anyk => ../
