// The benchmark is a module of its own so that it builds from bench/ alone
// plus the repository it measures; the import path repro/bench sits inside
// repro's tree, which is what lets it import repro/internal/....
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
