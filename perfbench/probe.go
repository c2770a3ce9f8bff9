package main

import (
	"fmt"
	"net"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by up
// to 1.5x over minutes as other tenants come and go, with CPU steal
// near zero (on a 2-vCPU cloud VM: a series-dtw search median of 3.8 to
// 5.8 ms over ten back to back runs; mixed-write's ops_per_s from 2,140
// to 1,400 within five minutes). No summary within a run removes that,
// so the served path's times are scaled to a reference host speed
// measured in the same run by a speed probe.
//
// The probe times probeTrips one-byte round trips between two of this
// directory's goroutines over a loopback TCP connection: the system
// calls, wake-ups and scheduling every served request pays, with none
// of the program's code or cache state. It runs at every snapshot
// barrier of the timed phase, just before the snapshot, while every
// client waits and no request is in flight. A compute kernel timed the
// same way tracked the workloads worse: at a snapshot barrier it
// overlaps the end of the garbage collection the last requests started.
// Background work that a later change adds to the program would run
// during the probe too, so the measured times are printed beside the
// scaled ones.

// probeTrips is the probe's fixed amount of work, and probeRefMs its
// time on the reference host the reported times are scaled to (about a
// quiet 2-vCPU cloud VM).
const (
	probeTrips = 100
	probeRefMs = 1.2
)

// speedProbe is a loopback connection with an echo goroutine at the far
// end.
type speedProbe struct {
	conn net.Conn
	done chan struct{}
}

func newSpeedProbe() (*speedProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	echo, err := ln.Accept()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	p := &speedProbe{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		defer echo.Close()
		b := make([]byte, 1)
		for {
			if _, err := echo.Read(b); err != nil {
				return
			}
			if _, err := echo.Write(b); err != nil {
				return
			}
		}
	}()
	return p, nil
}

// sample returns the time, in ms, of probeTrips round trips.
func (p *speedProbe) sample() (float64, error) {
	b := []byte{1}
	t0 := time.Now()
	for i := 0; i < probeTrips; i++ {
		if _, err := p.conn.Write(b); err != nil {
			return 0, fmt.Errorf("speed probe: %w", err)
		}
		if _, err := p.conn.Read(b); err != nil {
			return 0, fmt.Errorf("speed probe: %w", err)
		}
	}
	return float64(time.Since(t0)) / 1e6, nil
}

// close ends the echo goroutine and waits for it.
func (p *speedProbe) close() {
	p.conn.Close()
	<-p.done
}

// speedScale is the factor that scales a time measured alongside the
// given probe samples to the reference host speed: probeRefMs over their
// median. It is 1 when there are none.
func speedScale(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return probeRefMs / percentile(samples, 0.5)
}
