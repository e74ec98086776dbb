module graphmat/benchmark

go 1.24

require graphmat v0.0.0

replace graphmat => ../
