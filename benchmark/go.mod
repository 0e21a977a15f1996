module mpifault/benchmark

go 1.22

require mpifault v0.0.0

replace mpifault => ../
