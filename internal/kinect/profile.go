package kinect

import (
	"fmt"
	"math"

	"gesturecep/internal/geom"
)

// ReferenceForearm is the forearm length (mm) of the reference user whose
// proportions gesture path specifications are expressed in. The data
// transformation normalizes every user to this reference (§3.2), so learned
// window centers stay in familiar millimetre magnitudes like the paper's
// Fig. 1 query (0/400/800 mm).
const ReferenceForearm = 250.0

// ReferenceHeight is the body height (mm) of the reference user.
const ReferenceHeight = 1750.0

// Profile describes one simulated user: anthropometry plus placement in the
// camera frame. The evaluation harness varies Height (scale invariance),
// Position (position invariance) and Yaw (orientation invariance) to test
// the §3.2 transformation.
type Profile struct {
	// Name labels the user in reports.
	Name string
	// Height is the body height in millimetres. Limb lengths scale
	// proportionally ("tall people have longer arms", §3.2).
	Height float64
	// Position is the torso position in camera coordinates (mm). The
	// camera looks along +Z; a user two metres away stands near
	// (0, 0, 2000).
	Position geom.Vec3
	// Yaw is the facing direction: 0 faces the camera, positive turns
	// towards the camera's right (radians).
	Yaw float64
}

// Validate reports configuration errors.
func (p Profile) Validate() error {
	if p.Height < 500 || p.Height > 2500 {
		return fmt.Errorf("kinect: implausible height %.0f mm", p.Height)
	}
	if p.Position.Z < 500 {
		return fmt.Errorf("kinect: user too close to camera (z = %.0f mm)", p.Position.Z)
	}
	if math.IsNaN(p.Yaw) || math.Abs(p.Yaw) > math.Pi {
		return fmt.Errorf("kinect: yaw %v out of range [-π, π]", p.Yaw)
	}
	return nil
}

// ScaleFactor returns the body-size ratio relative to the reference user.
func (p Profile) ScaleFactor() float64 { return p.Height / ReferenceHeight }

// Forearm returns the right forearm length (elbow→hand, mm) — the scale
// factor the paper's transformation divides by (§3.2).
func (p Profile) Forearm() float64 { return ReferenceForearm * p.ScaleFactor() }

// DefaultProfile is an average adult standing 2 m in front of the camera,
// facing it — comparable to the trace shown in the paper's Fig. 1 (torso
// near (45, 165, 1960)).
func DefaultProfile() Profile {
	return Profile{
		Name:     "adult",
		Height:   ReferenceHeight,
		Position: geom.V(45, 165, 1960),
		Yaw:      0,
	}
}

// ChildProfile is a small user, exercising the scale-invariance claim
// ("testing the same gestures with children and adults", §3.2).
func ChildProfile() Profile {
	return Profile{
		Name:     "child",
		Height:   1250,
		Position: geom.V(-150, -120, 2400),
		Yaw:      0,
	}
}

// TallProfile is a tall user standing off-centre and slightly turned.
func TallProfile() Profile {
	return Profile{
		Name:     "tall",
		Height:   1980,
		Position: geom.V(400, 210, 2800),
		Yaw:      geom.Radians(15),
	}
}

// restPose returns the reference user's idle skeleton in the user-local
// frame: torso at the origin, X towards the camera's right (yaw 0), Y up,
// Z away from the camera, so a hand held in front of the body has negative
// local Z. Units are reference millimetres; Scale() by the profile factor
// before placing into the camera frame.
func restPose() [NumJoints]geom.Vec3 {
	var p [NumJoints]geom.Vec3
	p[Torso] = geom.V(0, 0, 0)
	p[Neck] = geom.V(0, 330, 0)
	p[Head] = geom.V(0, 500, 0)
	p[LeftShoulder] = geom.V(-200, 300, 0)
	p[RightShoulder] = geom.V(200, 300, 0)
	// Arms hang down and slightly forward at rest.
	p[LeftElbow] = geom.V(-230, 30, -30)
	p[RightElbow] = geom.V(230, 30, -30)
	p[LeftHand] = geom.V(-240, -210, -60)
	p[RightHand] = geom.V(240, -210, -60)
	p[LeftHip] = geom.V(-100, -280, 0)
	p[RightHip] = geom.V(100, -280, 0)
	p[LeftKnee] = geom.V(-105, -700, 0)
	p[RightKnee] = geom.V(105, -700, 0)
	p[LeftFoot] = geom.V(-110, -1100, 30)
	p[RightFoot] = geom.V(110, -1100, 30)
	return p
}

// orientation returns the rotation mapping user-local vectors into the
// camera frame for this profile's yaw: local (0,0,-1) (user's front) maps to
// geom.DirectionFromYaw(p.Yaw).
func (p Profile) orientation() geom.Mat3 {
	return geom.RotY(-p.Yaw)
}

// LocalToCamera places a user-local point (reference millimetres) into the
// camera frame: scale by body size, rotate by yaw, translate by torso
// position.
func (p Profile) LocalToCamera(local geom.Vec3) geom.Vec3 {
	return p.Position.Add(p.orientation().Apply(local.Scale(p.ScaleFactor())))
}

// CameraToLocal inverts LocalToCamera. It is used by tests to verify the
// engine-side transformation recovers user-local coordinates.
func (p Profile) CameraToLocal(cam geom.Vec3) geom.Vec3 {
	return p.orientation().Transpose().Apply(cam.Sub(p.Position)).Scale(1 / p.ScaleFactor())
}
