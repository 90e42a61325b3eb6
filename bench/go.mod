module repose/bench

go 1.21

require repose v0.0.0

replace repose => ../
