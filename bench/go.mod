module xdaq/bench

go 1.23

require xdaq v0.0.0

replace xdaq => ../
