package learn

import (
	"fmt"
	"time"

	"gesturecep/internal/kinect"
)

// Demo learns the first n of kinect.DemoGestureNames, the gesture set the
// serving binaries deploy, and returns the results in that order. One
// trainer seeded with seed performs four samples of each gesture (path
// jitter 25) from 2014-03-24 10:00 UTC, so the same n and seed always yield
// the same query texts: a server, a replay of its recordings and the test
// fixtures all evaluate identical plans.
func Demo(n int, seed int64) ([]*Result, error) {
	names := kinect.DemoGestureNames()
	if n < 1 || n > len(names) {
		return nil, fmt.Errorf("learn: %d demo gestures, want 1..%d", n, len(names))
	}
	trainer, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), seed)
	if err != nil {
		return nil, err
	}
	start := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	specs := kinect.StandardGestures()
	out := make([]*Result, 0, n)
	for _, name := range names[:n] {
		samples, err := trainer.Samples(specs[name], 4, start, kinect.PerformOpts{PathJitter: 25})
		if err != nil {
			return nil, err
		}
		res, err := Learn(name, samples, DefaultConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
