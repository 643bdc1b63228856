package schedule

import (
	"encoding/json"
	"fmt"
)

// gridJSON is the wire form of a Grid.
type gridJSON struct {
	// Step is the slot width τ in seconds.
	Step float64 `json:"step"`
	// Values are the per-slot values.
	Values []float64 `json:"values"`
}

// MarshalJSON encodes the grid as {"step": τ, "values": [...]}.
func (g *Grid) MarshalJSON() ([]byte, error) {
	return json.Marshal(gridJSON{Step: g.Step, Values: g.Values})
}

// UnmarshalJSON decodes and validates the wire form.
func (g *Grid) UnmarshalJSON(data []byte) error {
	var w gridJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("schedule: decoding grid: %w", err)
	}
	if err := ValidateWire(w.Step, len(w.Values)); err != nil {
		return err
	}
	g.Step = w.Step
	g.Values = w.Values
	return nil
}

// ValidateWire applies the checks UnmarshalJSON makes on a decoded
// wire grid, in the same order and with the same errors: a positive
// step, then at least one slot. One-pass decoders of enclosing wire
// forms call it so their grids reject exactly what UnmarshalJSON
// rejects.
func ValidateWire(step float64, slots int) error {
	if step <= 0 {
		return fmt.Errorf("schedule: grid step %g must be positive", step)
	}
	if slots == 0 {
		return fmt.Errorf("schedule: grid has no slots")
	}
	return nil
}
