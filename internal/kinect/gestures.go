package kinect

import (
	"fmt"
	"sort"
	"time"

	"gesturecep/internal/geom"
)

// GestureSpec is the parametric definition of one gesture: per-joint control
// points of the movement path in the user-local reference frame (reference
// millimetres: torso at origin, X to the camera's right at yaw 0, Y up, Z
// away from the camera — a hand in front of the body has negative Z).
//
// The simulator interpolates a smooth trajectory through the control points
// over Duration; all joints not listed hold their rest pose (elbows follow
// their hand via analytic IK so the forearm length stays exact, which the
// §3.2 scale factor depends on).
type GestureSpec struct {
	Name     string
	Duration time.Duration
	Paths    map[Joint][]geom.Vec3
}

// Validate reports structural problems with the spec.
func (g GestureSpec) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("kinect: gesture without a name")
	}
	if g.Duration <= 0 {
		return fmt.Errorf("kinect: gesture %q has non-positive duration", g.Name)
	}
	if len(g.Paths) == 0 {
		return fmt.Errorf("kinect: gesture %q has no joint paths", g.Name)
	}
	for j, pts := range g.Paths {
		if len(pts) < 2 {
			return fmt.Errorf("kinect: gesture %q path for %s needs >= 2 control points", g.Name, j)
		}
	}
	return nil
}

// PrimaryJoint returns the joint with the longest path — the joint whose
// movement defines the gesture (usually the right hand). Ties break by
// joint order.
func (g GestureSpec) PrimaryJoint() Joint {
	best := Joint(-1)
	bestLen := -1.0
	order := make([]Joint, 0, len(g.Paths))
	for j := range g.Paths {
		order = append(order, j)
	}
	sort.Slice(order, func(i, k int) bool { return order[i] < order[k] })
	for _, j := range order {
		l := geom.PathLength(g.Paths[j])
		if l > bestLen {
			best, bestLen = j, l
		}
	}
	return best
}

// Standard gesture names.
const (
	GestureSwipeRight   = "swipe_right"
	GestureSwipeLeft    = "swipe_left"
	GestureSwipeUp      = "swipe_up"
	GestureSwipeDown    = "swipe_down"
	GesturePush         = "push"
	GesturePull         = "pull"
	GestureCircle       = "circle"
	GestureWave         = "wave"
	GestureRaiseHand    = "raise_hand"
	GestureTwoHandSwipe = "two_hand_swipe"
)

// StandardGestures returns the built-in gesture library keyed by name. The
// set mirrors the paper's demos: swipes for OLAP/graph navigation ([1],[3]),
// circle (Fig. 2), wave as the record-control gesture and the two-hand
// swipe that finalizes learning (§3.1).
func StandardGestures() map[string]GestureSpec {
	reverse := func(pts []geom.Vec3) []geom.Vec3 {
		out := make([]geom.Vec3, len(pts))
		for i, p := range pts {
			out[len(pts)-1-i] = p
		}
		return out
	}

	swipeRightPath := []geom.Vec3{
		{X: 0, Y: 150, Z: -150},
		{X: 350, Y: 150, Z: -400},
		{X: 700, Y: 150, Z: -150},
	}
	swipeUpPath := []geom.Vec3{
		{X: 250, Y: -150, Z: -250},
		{X: 280, Y: 150, Z: -380},
		{X: 250, Y: 480, Z: -250},
	}
	pushPath := []geom.Vec3{
		{X: 200, Y: 150, Z: -120},
		{X: 200, Y: 160, Z: -480},
	}
	// An approximate circle in the frontal (XY) plane, drawn clockwise
	// starting at the top; loosely follows the five windows of Fig. 2.
	circlePath := []geom.Vec3{
		{X: 100, Y: 420, Z: -200},
		{X: 300, Y: 280, Z: -200},
		{X: 330, Y: 60, Z: -200},
		{X: 120, Y: -120, Z: -200},
		{X: -100, Y: -10, Z: -200},
		{X: -130, Y: 250, Z: -200},
		{X: 100, Y: 420, Z: -200},
	}
	// Wave: forearm oscillates left-right above the shoulder; the lateral
	// oscillation is what the pre-defined control query keys on.
	wavePath := []geom.Vec3{
		{X: 250, Y: 420, Z: -150},
		{X: 420, Y: 450, Z: -150},
		{X: 230, Y: 430, Z: -150},
		{X: 420, Y: 450, Z: -150},
		{X: 230, Y: 430, Z: -150},
		{X: 420, Y: 450, Z: -150},
	}
	raisePath := []geom.Vec3{
		{X: 240, Y: -210, Z: -60},
		{X: 260, Y: 150, Z: -200},
		{X: 250, Y: 520, Z: -120},
	}
	twoRight := []geom.Vec3{
		{X: 300, Y: 0, Z: -250},
		{X: 280, Y: 400, Z: -300},
	}
	twoLeft := []geom.Vec3{
		{X: -300, Y: 0, Z: -250},
		{X: -280, Y: 400, Z: -300},
	}

	specs := []GestureSpec{
		{Name: GestureSwipeRight, Duration: 800 * time.Millisecond,
			Paths: map[Joint][]geom.Vec3{RightHand: swipeRightPath}},
		{Name: GestureSwipeLeft, Duration: 800 * time.Millisecond,
			Paths: map[Joint][]geom.Vec3{RightHand: reverse(swipeRightPath)}},
		{Name: GestureSwipeUp, Duration: 800 * time.Millisecond,
			Paths: map[Joint][]geom.Vec3{RightHand: swipeUpPath}},
		{Name: GestureSwipeDown, Duration: 800 * time.Millisecond,
			Paths: map[Joint][]geom.Vec3{RightHand: reverse(swipeUpPath)}},
		{Name: GesturePush, Duration: 600 * time.Millisecond,
			Paths: map[Joint][]geom.Vec3{RightHand: pushPath}},
		{Name: GesturePull, Duration: 600 * time.Millisecond,
			Paths: map[Joint][]geom.Vec3{RightHand: reverse(pushPath)}},
		{Name: GestureCircle, Duration: 1600 * time.Millisecond,
			Paths: map[Joint][]geom.Vec3{RightHand: circlePath}},
		{Name: GestureWave, Duration: 1200 * time.Millisecond,
			Paths: map[Joint][]geom.Vec3{RightHand: wavePath}},
		{Name: GestureRaiseHand, Duration: 700 * time.Millisecond,
			Paths: map[Joint][]geom.Vec3{RightHand: raisePath}},
		{Name: GestureTwoHandSwipe, Duration: 800 * time.Millisecond,
			Paths: map[Joint][]geom.Vec3{RightHand: twoRight, LeftHand: twoLeft}},
	}

	out := make(map[string]GestureSpec, len(specs))
	for _, s := range specs {
		out[s.Name] = s
	}
	return out
}

// GestureNames returns the names of the standard library in sorted order.
func GestureNames() []string {
	specs := StandardGestures()
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DemoGestureNames returns the eight gestures the serving CLIs learn and
// drive, in their canonical demo order (the order the `-gestures N` prefix
// of gestured and gesturegateway selects from, and gestureload performs).
// One shared list keeps the binaries serving and driving the same gesture
// set.
func DemoGestureNames() []string {
	return []string{
		GestureSwipeRight, GestureSwipeLeft, GestureSwipeUp,
		GestureSwipeDown, GesturePush, GesturePull,
		GestureCircle, GestureRaiseHand,
	}
}
