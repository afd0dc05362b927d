module mrvd/bench

go 1.24

require mrvd v0.0.0

replace mrvd => ../
