// Package anml encodes automata networks to and from an ANML-style XML
// representation, the Automata Network Markup Language the AP toolchain
// consumes (paper §II-B: "applications ... must specify an ANML file").
//
// The dialect follows Micron's structure: one XML element per fabric
// element, activation edges as child activate-on-* elements, and counter
// ports addressed with ":count" / ":reset" suffixes on the target ID.
package anml

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/automata"
)

// orderedNetwork preserves document order of heterogeneous children during
// decoding, so a decoded network assigns the same element IDs the encoder
// used and round trips are exact.
type orderedNetwork struct {
	Name     string
	Children []interface{} // *xmlSTE | *xmlCounter | *xmlBoolean
}

func (o *orderedNetwork) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	for _, a := range start.Attr {
		if a.Name.Local == "name" {
			o.Name = a.Value
		}
	}
	for {
		tok, err := d.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "state-transition-element":
				var s xmlSTE
				if err := d.DecodeElement(&s, &t); err != nil {
					return err
				}
				o.Children = append(o.Children, &s)
			case "counter":
				var c xmlCounter
				if err := d.DecodeElement(&c, &t); err != nil {
					return err
				}
				o.Children = append(o.Children, &c)
			case "boolean":
				var b xmlBoolean
				if err := d.DecodeElement(&b, &t); err != nil {
					return err
				}
				o.Children = append(o.Children, &b)
			default:
				if err := d.Skip(); err != nil {
					return err
				}
			}
		case xml.EndElement:
			return nil
		}
	}
}

type xmlSTE struct {
	XMLName   xml.Name      `xml:"state-transition-element"`
	ID        string        `xml:"id,attr"`
	SymbolSet string        `xml:"symbol-set,attr"`
	Start     string        `xml:"start,attr,omitempty"`
	Name      string        `xml:"name,attr,omitempty"`
	Report    *xmlReport    `xml:"report-on-match"`
	Activate  []xmlActivate `xml:"activate-on-match"`
}

type xmlCounter struct {
	XMLName  xml.Name   `xml:"counter"`
	ID       string     `xml:"id,attr"`
	Target   int        `xml:"target,attr"`
	AtTarget string     `xml:"at-target,attr"`
	Name     string     `xml:"name,attr,omitempty"`
	Report   *xmlReport `xml:"report-on-target"`
	// TargetFrom names the counter whose live count serves as this counter's
	// threshold — the §VII-B dynamic-threshold extension. Empty for standard
	// counters.
	TargetFrom string        `xml:"target-from,attr,omitempty"`
	Activate   []xmlActivate `xml:"activate-on-target"`
}

type xmlBoolean struct {
	XMLName  xml.Name      `xml:"boolean"`
	ID       string        `xml:"id,attr"`
	Function string        `xml:"function,attr"`
	Name     string        `xml:"name,attr,omitempty"`
	Report   *xmlReport    `xml:"report-on-high"`
	Activate []xmlActivate `xml:"activate-on-high"`
}

type xmlReport struct {
	Code int32 `xml:"reportcode,attr"`
}

type xmlActivate struct {
	Element string `xml:"element,attr"`
}

// Encode writes net as ANML XML to w. Element IDs are "e<N>" and children
// appear in network order, so encoding is deterministic and decoding
// reconstructs identical element IDs.
func Encode(w io.Writer, net *automata.Network, name string) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	root := xml.StartElement{Name: xml.Name{Local: "automata-network"}}
	if name != "" {
		root.Attr = append(root.Attr, xml.Attr{Name: xml.Name{Local: "name"}, Value: name})
	}
	if err := enc.EncodeToken(root); err != nil {
		return fmt.Errorf("anml: encode: %w", err)
	}
	for i := 0; i < net.Len(); i++ {
		id := automata.ElementID(i)
		reporting, code := net.IsReporting(id)
		var rep *xmlReport
		if reporting {
			rep = &xmlReport{Code: code}
		}
		acts := activationsOf(net, id)
		var err error
		switch net.KindOf(id) {
		case automata.KindSTE:
			err = enc.Encode(xmlSTE{
				ID:        elemID(id),
				SymbolSet: formatClass(net.ClassOf(id)),
				Start:     startString(net.StartOf(id)),
				Name:      net.NameOf(id),
				Report:    rep,
				Activate:  acts,
			})
		case automata.KindCounter:
			c := xmlCounter{
				ID:       elemID(id),
				Target:   net.ThresholdOf(id),
				AtTarget: net.ModeOf(id).String(),
				Name:     net.NameOf(id),
				Report:   rep,
				Activate: acts,
			}
			if src, ok := net.DynamicSrcOf(id); ok {
				c.TargetFrom = elemID(src)
			}
			err = enc.Encode(c)
		case automata.KindGate:
			err = enc.Encode(xmlBoolean{
				ID:       elemID(id),
				Function: net.OpOf(id).String(),
				Name:     net.NameOf(id),
				Report:   rep,
				Activate: acts,
			})
		}
		if err != nil {
			return fmt.Errorf("anml: encode element %d: %w", i, err)
		}
	}
	if err := enc.EncodeToken(root.End()); err != nil {
		return fmt.Errorf("anml: encode: %w", err)
	}
	return enc.Flush()
}

func activationsOf(net *automata.Network, id automata.ElementID) []xmlActivate {
	var acts []xmlActivate
	for _, e := range net.Edges(id) {
		target := elemID(e.To)
		switch e.Port {
		case automata.PortCount:
			target += ":count"
		case automata.PortReset:
			target += ":reset"
		}
		acts = append(acts, xmlActivate{Element: target})
	}
	return acts
}

func elemID(id automata.ElementID) string { return fmt.Sprintf("e%d", id) }

func startString(s automata.StartKind) string {
	switch s {
	case automata.StartOfData:
		return "start-of-data"
	case automata.StartAll:
		return "all-input"
	default:
		return ""
	}
}

// Decode parses ANML XML from r and reconstructs the network and its name.
// Elements are created in document order, so a network encoded by Encode
// decodes with identical element IDs.
func Decode(r io.Reader) (*automata.Network, string, error) {
	var doc orderedNetwork
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, "", fmt.Errorf("anml: decode: %w", err)
	}
	net := automata.NewNetwork()
	ids := map[string]automata.ElementID{}

	addOpts := func(name string, rep *xmlReport) []automata.STEOpt {
		var opts []automata.STEOpt
		if name != "" {
			opts = append(opts, automata.WithName(name))
		}
		if rep != nil {
			opts = append(opts, automata.WithReport(rep.Code))
		}
		return opts
	}
	register := func(rawID string, id automata.ElementID) error {
		if _, dup := ids[rawID]; dup {
			return fmt.Errorf("anml: duplicate element id %q", rawID)
		}
		ids[rawID] = id
		return nil
	}

	// Pass 1: create elements in document order.
	for _, child := range doc.Children {
		switch e := child.(type) {
		case *xmlSTE:
			class, err := parseClass(e.SymbolSet)
			if err != nil {
				return nil, "", fmt.Errorf("anml: STE %q: %w", e.ID, err)
			}
			opts := addOpts(e.Name, e.Report)
			switch e.Start {
			case "":
			case "start-of-data":
				opts = append(opts, automata.WithStart(automata.StartOfData))
			case "all-input":
				opts = append(opts, automata.WithStart(automata.StartAll))
			default:
				return nil, "", fmt.Errorf("anml: STE %q: unknown start kind %q", e.ID, e.Start)
			}
			if err := register(e.ID, net.AddSTE(class, opts...)); err != nil {
				return nil, "", err
			}
		case *xmlCounter:
			if e.TargetFrom != "" {
				// Dynamic-threshold counters reference an earlier counter;
				// Encode always emits sources before consumers is NOT
				// guaranteed, so resolve lazily after pass 1 would be
				// cleaner — but the generators only ever wire backwards
				// references, so a forward reference is rejected here.
				src, ok := ids[e.TargetFrom]
				if !ok {
					return nil, "", fmt.Errorf("anml: counter %q: unknown target-from %q", e.ID, e.TargetFrom)
				}
				if err := register(e.ID, net.AddDynamicCounter(src, addOpts(e.Name, e.Report)...)); err != nil {
					return nil, "", err
				}
				continue
			}
			mode, err := parseMode(e.AtTarget)
			if err != nil {
				return nil, "", fmt.Errorf("anml: counter %q: %w", e.ID, err)
			}
			if e.Target <= 0 {
				return nil, "", fmt.Errorf("anml: counter %q: non-positive target %d", e.ID, e.Target)
			}
			if err := register(e.ID, net.AddCounter(e.Target, mode, addOpts(e.Name, e.Report)...)); err != nil {
				return nil, "", err
			}
		case *xmlBoolean:
			op, err := parseOp(e.Function)
			if err != nil {
				return nil, "", fmt.Errorf("anml: boolean %q: %w", e.ID, err)
			}
			if err := register(e.ID, net.AddGate(op, addOpts(e.Name, e.Report)...)); err != nil {
				return nil, "", err
			}
		}
	}

	// Pass 2: edges.
	connect := func(fromID string, acts []xmlActivate) error {
		from := ids[fromID]
		for _, a := range acts {
			target := a.Element
			port := automata.PortDefault
			switch {
			case strings.HasSuffix(target, ":count"):
				port = automata.PortCount
				target = strings.TrimSuffix(target, ":count")
			case strings.HasSuffix(target, ":reset"):
				port = automata.PortReset
				target = strings.TrimSuffix(target, ":reset")
			}
			to, ok := ids[target]
			if !ok {
				return fmt.Errorf("anml: activation from %q to unknown element %q", fromID, a.Element)
			}
			net.ConnectPort(from, to, port)
		}
		return nil
	}
	for _, child := range doc.Children {
		var err error
		switch e := child.(type) {
		case *xmlSTE:
			err = connect(e.ID, e.Activate)
		case *xmlCounter:
			err = connect(e.ID, e.Activate)
		case *xmlBoolean:
			err = connect(e.ID, e.Activate)
		}
		if err != nil {
			return nil, "", err
		}
	}
	if err := net.Validate(); err != nil {
		return nil, "", fmt.Errorf("anml: decoded network invalid: %w", err)
	}
	return net, doc.Name, nil
}

func parseMode(s string) (automata.CounterMode, error) {
	switch s {
	case "pulse", "":
		return automata.CounterPulse, nil
	case "latch":
		return automata.CounterLatch, nil
	case "roll-over":
		return automata.CounterRollOver, nil
	default:
		return 0, fmt.Errorf("unknown counter mode %q", s)
	}
}

func parseOp(s string) (automata.GateOp, error) {
	switch s {
	case "or":
		return automata.GateOR, nil
	case "and":
		return automata.GateAND, nil
	case "not":
		return automata.GateNOT, nil
	case "nand":
		return automata.GateNAND, nil
	case "nor":
		return automata.GateNOR, nil
	case "xor":
		return automata.GateXOR, nil
	case "xnor":
		return automata.GateXNOR, nil
	default:
		return 0, fmt.Errorf("unknown boolean function %q", s)
	}
}
