module spmvtune/bench

go 1.22

require spmvtune v0.0.0

replace spmvtune => ../
