// Interactive learning session — the complete Fig. 2 workflow, entirely
// gesture-controlled (§3.1): the learning tool itself is operated through
// pre-defined control gestures, so the user never touches the keyboard.
//
//  1. The wave gesture arms the recorder.
//  2. The user holds still at the start pose; the stillness protocol
//     segments each training sample automatically.
//  3. After a few repetitions, a two-hand swipe finalizes the session: the
//     CEP query is generated and deployed, and the testing phase begins.
//
// Run with: go run ./examples/interactive
package main

import (
	"fmt"
	"log"
	"time"

	"gesturecep"
	"gesturecep/internal/anduin"
	"gesturecep/internal/control"
	"gesturecep/internal/detect"
	"gesturecep/internal/geom"
	"gesturecep/internal/kinect"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
)

func main() {
	// Engine with the kinect pipeline and the pre-defined control queries.
	h, err := detect.NewHarness(transform.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := h.Deploy(control.ControlQueries()...); err != nil {
		log.Fatal(err)
	}

	// The controller runs one learning session for the new gesture. The
	// finalize event carries the learning result.
	var learned *gesture.LearnResult
	ctl, err := control.New("letter_l", control.DefaultConfig(), func(e control.Event) {
		switch e.Kind {
		case control.EventArmed:
			fmt.Println("[controller] wave detected — recording armed, hold still at the start pose")
		case control.EventSampleRecorded:
			fmt.Printf("[controller] sample %d recorded\n", e.Samples)
		case control.EventSampleRejected:
			fmt.Println("[controller] movement too short — ignored")
		case control.EventWarning:
			fmt.Printf("[controller] warning: %s\n", e.Warning)
		case control.EventFinalized:
			if e.Err != nil {
				fmt.Println("[controller] finalize failed:", e.Err)
				return
			}
			learned = e.Result
			fmt.Printf("[controller] finalized after %d samples — generated query:\n\n%s\n",
				e.Samples, e.Result.QueryText)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	h.Engine.Subscribe(func(d anduin.Detection) { ctl.HandleDetection(d.Gesture) })
	h.Raw.Subscribe(func(tp stream.Tuple) {
		if f, err := kinect.FromTuple(tp); err == nil {
			ctl.HandleFrame(f)
		}
	})

	// The user's new gesture: an L shape (down, then right).
	letterL := gesture.GestureSpec{
		Name:     "letter_l",
		Duration: 1100 * time.Millisecond,
		Paths: map[gesture.Joint][]geom.Vec3{
			kinect.RightHand: {
				{X: 100, Y: 450, Z: -200},
				{X: 100, Y: -50, Z: -200},
				{X: 450, Y: -50, Z: -200},
			},
		},
	}
	extra := map[string]gesture.GestureSpec{"letter_l": letterL}

	// One continuous camera session: wave, three repetitions, finalize.
	sim, err := gesture.NewSimulator(gesture.DefaultProfile(), 17)
	if err != nil {
		log.Fatal(err)
	}
	script := []gesture.ScriptItem{
		{Idle: time.Second},
		{Gesture: "wave"},
		{Idle: time.Second},
		{Gesture: "letter_l", Opts: gesture.PerformOpts{PathJitter: 25}},
		{Idle: 1500 * time.Millisecond},
		{Gesture: "letter_l", Opts: gesture.PerformOpts{PathJitter: 25}},
		{Idle: 1500 * time.Millisecond},
		{Gesture: "letter_l", Opts: gesture.PerformOpts{PathJitter: 25}},
		{Idle: 1500 * time.Millisecond},
		{Gesture: "two_hand_swipe"},
		{Idle: time.Second},
	}
	sess, err := sim.RunScript(script, time.Now(), extra)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replaying a %v interactive session...\n", sess.Duration().Round(time.Second))
	if err := feed(h, sess.Frames); err != nil {
		log.Fatal(err)
	}

	// Testing phase: deploy the learned query and verify detection. If the
	// finalize gesture was somehow missed, finalize programmatically.
	if learned == nil {
		learned, err = ctl.Finalize()
		if err != nil {
			log.Fatalf("controller did not produce a result (phase %v): %v", ctl.Phase(), err)
		}
	}
	if err := h.Deploy(learned.QueryText); err != nil {
		log.Fatal(err)
	}
	h.Engine.Subscribe(func(d anduin.Detection) {
		if d.Gesture == "letter_l" {
			fmt.Printf(">>> letter_l detected at %s\n", d.End.Format("15:04:05.000"))
		}
	})
	test, err := sim.RunScript([]gesture.ScriptItem{
		{Idle: time.Second},
		{Gesture: "letter_l", Opts: gesture.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
	}, time.Now().Add(time.Hour), extra)
	if err != nil {
		log.Fatal(err)
	}
	if err := feed(h, test.Frames); err != nil {
		log.Fatal(err)
	}
	fmt.Println("testing phase finished.")
}

// feed publishes frames through the engine one at a time, each a batch of
// one. It must stay frame by frame: the controller subscribes to the raw
// stream and must see a frame's detections before the next frame, while a
// wider batch hands it all its frames before any of their detections.
func feed(h *detect.Harness, frames []gesture.Frame) error {
	tuples := kinect.ToTuples(frames)
	for i := range tuples {
		if err := h.Engine.PublishBatch(h.Raw, tuples[i:i+1], nil); err != nil {
			return err
		}
	}
	return nil
}
