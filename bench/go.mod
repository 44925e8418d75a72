module qav/bench

go 1.22

require qav v0.0.0

replace qav => ../
