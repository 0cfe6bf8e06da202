module cawa/cmd/cawaperf

go 1.22

require cawa v0.0.0

replace cawa => ../..
