// Package fixture exercises directive hygiene: unknown verbs and
// missing arguments are findings in their own right.
package fixture

var ok = 0 //mspr:guardedby a well-formed directive parses silently

var bad = 1 /* want "unknown //mspr: directive verb" */ //mspr:frobnicate whatever

var empty = 2 /* want "needs an argument" */ //mspr:guardedby
