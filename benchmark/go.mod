module linkguardian/benchmark

go 1.22

require linkguardian v0.0.0

replace linkguardian => ../
