// Package openedx implements the WebGPU 2.0 front-end integration
// (§VI-A): "We now use OpenEdx as an interface for instructors to author
// the labs and the students to develop the labs. This was a result of
// both instructors and students wanting the same site and interface for
// all course content." The package provides the programming XBlock
// definition that embeds a WebGPU lab in a course unit, LTI-style signed
// launch requests so the LMS can hand authenticated students to the
// platform, and grade passback from WebGPU to the LMS gradebook.
package openedx

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"webgpu/internal/grader"
	"webgpu/internal/labs"
)

// Errors.
var (
	ErrBadSignature = errors.New("openedx: launch signature invalid")
	ErrExpired      = errors.New("openedx: launch request expired")
	ErrUnknownLab   = errors.New("openedx: xblock references an unknown lab")
)

// XBlock is the definition an instructor places in a course unit to embed
// a WebGPU lab; OpenEdx stores it as JSON in the course structure.
type XBlock struct {
	Type        string  `json:"type"` // always "webgpu_lab"
	LabID       string  `json:"lab_id"`
	DisplayName string  `json:"display_name"`
	Weight      float64 `json:"weight"` // share of the unit grade
	MaxPoints   int     `json:"max_points"`
	Deadline    string  `json:"deadline,omitempty"` // RFC3339
}

// NewXBlock builds (and validates) the XBlock for a catalog lab.
func NewXBlock(labID string, weight float64, deadline time.Time) (*XBlock, error) {
	l := labs.ByID(labID)
	if l == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownLab, labID)
	}
	xb := &XBlock{
		Type:        "webgpu_lab",
		LabID:       l.ID,
		DisplayName: l.Name,
		Weight:      weight,
		MaxPoints:   l.MaxPoints(),
	}
	if !deadline.IsZero() {
		xb.Deadline = deadline.Format(time.RFC3339)
	}
	return xb, nil
}

// Marshal renders the XBlock as course-structure JSON.
func (xb *XBlock) Marshal() []byte {
	b, _ := json.Marshal(xb)
	return b
}

// ParseXBlock loads an XBlock definition, validating the lab reference.
func ParseXBlock(data []byte) (*XBlock, error) {
	var xb XBlock
	if err := json.Unmarshal(data, &xb); err != nil {
		return nil, fmt.Errorf("openedx: bad xblock: %w", err)
	}
	if xb.Type != "webgpu_lab" {
		return nil, fmt.Errorf("openedx: unexpected block type %q", xb.Type)
	}
	if labs.ByID(xb.LabID) == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownLab, xb.LabID)
	}
	return &xb, nil
}

// Launch is the signed request OpenEdx sends when a student opens the
// XBlock: it identifies the student, the lab, and the callback the
// platform should push the grade to.
type Launch struct {
	UserID    string `json:"user_id"` // LMS anonymous user id
	Email     string `json:"email"`
	FullName  string `json:"full_name"`
	LabID     string `json:"lab_id"`
	ResultID  string `json:"result_id"` // grade-passback sourcedid
	IssuedAt  int64  `json:"issued_at"` // unix seconds
	Signature string `json:"signature,omitempty"`
}

// LaunchWindow bounds how old a signed launch may be.
const LaunchWindow = 5 * time.Minute

// baseString serializes the signed fields in a canonical order, the
// OAuth-style base string of LTI 1.x.
func (l *Launch) baseString() string {
	fields := map[string]string{
		"user_id":   l.UserID,
		"email":     l.Email,
		"full_name": l.FullName,
		"lab_id":    l.LabID,
		"result_id": l.ResultID,
		"issued_at": strconv.FormatInt(l.IssuedAt, 10),
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(fields[k])
		sb.WriteByte('&')
	}
	return sb.String()
}

// Sign computes and stores the launch signature under the shared secret.
func (l *Launch) Sign(secret []byte) {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(l.baseString()))
	l.Signature = hex.EncodeToString(mac.Sum(nil))
}

// Verify checks the signature and freshness of a launch.
func (l *Launch) Verify(secret []byte, now time.Time) error {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(l.baseString()))
	want := hex.EncodeToString(mac.Sum(nil))
	if !hmac.Equal([]byte(want), []byte(l.Signature)) {
		return ErrBadSignature
	}
	issued := time.Unix(l.IssuedAt, 0)
	if now.Sub(issued) > LaunchWindow || issued.Sub(now) > time.Minute {
		return fmt.Errorf("%w: issued %v", ErrExpired, issued)
	}
	if labs.ByID(l.LabID) == nil {
		return fmt.Errorf("%w: %q", ErrUnknownLab, l.LabID)
	}
	return nil
}

// Connector is the LMS side of grade passback: WebGPU pushes each
// submission's score back under the launch's result id, normalized to the
// XBlock weight as OpenEdx expects (0..1).
type Connector struct {
	secret []byte
	mu     sync.Mutex
	scores map[string]float64 // result id -> normalized score
	pushes int64
}

// NewConnector creates a connector with the shared secret.
func NewConnector(secret []byte) *Connector {
	return &Connector{secret: secret, scores: map[string]float64{}}
}

// NewLaunch builds a signed launch for a student opening an XBlock.
func (c *Connector) NewLaunch(userID, email, name, labID string, now time.Time) *Launch {
	l := &Launch{
		UserID:   userID,
		Email:    email,
		FullName: name,
		LabID:    labID,
		ResultID: "sourcedid:" + userID + ":" + labID,
		IssuedAt: now.Unix(),
	}
	l.Sign(c.secret)
	return l
}

// PushGrade records a grade for the result id, normalized to [0,1].
// This is the role the Coursera gradebook played in v1 and the OpenEdx
// scores API plays in v2.
func (c *Connector) PushGrade(resultID string, g *grader.Grade) error {
	if g.Max <= 0 {
		return fmt.Errorf("openedx: grade has no max points")
	}
	score := float64(g.Total) / float64(g.Max)
	if score < 0 {
		score = 0
	}
	if score > 1 {
		score = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scores[resultID] = score
	c.pushes++
	return nil
}

// Score reads back a normalized score.
func (c *Connector) Score(resultID string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.scores[resultID]
	return s, ok
}

// Pushes reports how many grade passbacks occurred.
func (c *Connector) Pushes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pushes
}

// Gradebook adapts the connector to the grader.Gradebook interface so the
// platform can write v2 grades straight through to the LMS.
type Gradebook struct {
	C      *Connector
	mu     sync.Mutex
	grades map[string]*grader.Grade
}

// NewGradebook wraps a connector.
func NewGradebook(c *Connector) *Gradebook {
	return &Gradebook{C: c, grades: map[string]*grader.Grade{}}
}

// Record implements grader.Gradebook: it keeps the detailed grade and
// pushes the normalized score to the LMS.
func (g *Gradebook) Record(gr *grader.Grade) error {
	if gr.UserID == "" || gr.LabID == "" {
		return fmt.Errorf("openedx: grade missing user or lab id")
	}
	g.mu.Lock()
	cp := *gr
	g.grades[gr.UserID+"\x00"+gr.LabID] = &cp
	g.mu.Unlock()
	return g.C.PushGrade("sourcedid:"+gr.UserID+":"+gr.LabID, gr)
}

// Lookup implements grader.Gradebook.
func (g *Gradebook) Lookup(userID, labID string) (*grader.Grade, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	gr, ok := g.grades[userID+"\x00"+labID]
	if !ok {
		return nil, grader.ErrNoSuchGrade
	}
	cp := *gr
	return &cp, nil
}

var _ grader.Gradebook = (*Gradebook)(nil)
