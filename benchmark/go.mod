module mspr/benchmark

go 1.22

require mspr v0.0.0

replace mspr => ../
