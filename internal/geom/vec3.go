// Package geom provides the geometric substrate used throughout the gesture
// learning pipeline: 3D vectors, multi-dimensional bounding rectangles
// ("windows" in the paper's terminology), rotation matrices, Roll-Pitch-Yaw
// angles in an East-North-Up reference frame, and distance metrics.
//
// Units follow the Kinect convention: millimetres for positions, radians for
// angles.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or direction in 3D space. Coordinates are in the Kinect
// camera frame unless stated otherwise: X right, Y up, Z away from the
// camera (towards the user).
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Mul returns the component-wise product of v and w.
func (v Vec3) Mul(w Vec3) Vec3 { return Vec3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		X: v.Y*w.Z - v.Z*w.Y,
		Y: v.Z*w.X - v.X*w.Z,
		Z: v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w. This is the distance
// the paper uses both for the forearm-length scale factor (§3.2) and as the
// default metric for distance-based sampling (§3.3.1).
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Unit returns v normalized to length 1. The zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return Vec3{
		X: v.X + (w.X-v.X)*t,
		Y: v.Y + (w.Y-v.Y)*t,
		Z: v.Z + (w.Z-v.Z)*t,
	}
}

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// IsZero reports whether all components are exactly zero.
func (v Vec3) IsZero() bool { return v.X == 0 && v.Y == 0 && v.Z == 0 }

// IsFinite reports whether all components are finite numbers.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// ApproxEqual reports whether v and w are equal within eps per component.
func (v Vec3) ApproxEqual(w Vec3, eps float64) bool {
	return math.Abs(v.X-w.X) <= eps && math.Abs(v.Y-w.Y) <= eps && math.Abs(v.Z-w.Z) <= eps
}

// Coord returns the i-th coordinate (0 = X, 1 = Y, 2 = Z).
func (v Vec3) Coord(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	case 2:
		return v.Z
	}
	panic(fmt.Sprintf("geom: coordinate index %d out of range", i))
}

// SetCoord returns a copy of v with the i-th coordinate set to x.
func (v Vec3) SetCoord(i int, x float64) Vec3 {
	switch i {
	case 0:
		v.X = x
	case 1:
		v.Y = x
	case 2:
		v.Z = x
	default:
		panic(fmt.Sprintf("geom: coordinate index %d out of range", i))
	}
	return v
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.2f, %.2f, %.2f)", v.X, v.Y, v.Z)
}

// Midpoint returns the point halfway between v and w.
func (v Vec3) Midpoint(w Vec3) Vec3 { return v.Add(w).Scale(0.5) }

// PathLength returns the total polyline length of the given points, i.e. the
// sum of segment distances. It is the "total deviation observed" over a
// gesture path used to derive relative distance thresholds (§3.3.1).
func PathLength(pts []Vec3) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += pts[i].Dist(pts[i-1])
	}
	return total
}

// Centroid returns the arithmetic mean of the given points. It returns the
// zero vector for an empty slice.
func Centroid(pts []Vec3) Vec3 {
	if len(pts) == 0 {
		return Vec3{}
	}
	var sum Vec3
	for _, p := range pts {
		sum = sum.Add(p)
	}
	return sum.Scale(1 / float64(len(pts)))
}
