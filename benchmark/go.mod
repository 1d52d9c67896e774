module rtroute/benchmark

go 1.24

require rtroute v0.0.0

replace rtroute => ../
