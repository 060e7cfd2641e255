module treesim/benchmark

go 1.22

require treesim v0.0.0

replace treesim => ../
