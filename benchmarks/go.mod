module fmossim/benchmarks

go 1.22

require fmossim v0.0.0

replace fmossim => ../
